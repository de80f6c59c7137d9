// CompiledDisclosure::Answer evaluates its queries from the ReleasePlan:
//   - K Answers at every level run zero degree-sum scans
//     (Partition::DegreeSumScanCount stays put);
//   - every result is bit-identical to Workload::Run(graph, level, …) — the
//     one-scan path — for all three query kinds, including the edgeless
//     (Δ = 0) exact release.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/compiled_disclosure.hpp"
#include "core/release_plan.hpp"
#include "graph/generators.hpp"
#include "hier/partition.hpp"
#include "query/workload.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;
using gdp::graph::Side;
using gdp::hier::Partition;

BipartiteGraph TestGraph() {
  Rng rng(5);
  gdp::graph::DblpLikeParams p;
  p.num_left = 400;
  p.num_right = 600;
  p.num_edges = 2500;
  return GenerateDblpLike(p, rng);
}

SessionSpec SmallSpec() {
  SessionSpec spec;
  spec.hierarchy.depth = 5;
  spec.hierarchy.arity = 4;
  return spec;
}

// Every query kind, the group counts instantiated at `level` (as the
// serving path does).
gdp::query::Workload AllKinds(const Partition& level) {
  gdp::query::Workload workload;
  workload.Add(std::make_unique<gdp::query::AssociationCountQuery>())
      .Add(std::make_unique<gdp::query::GroupCountQuery>(level))
      .Add(std::make_unique<gdp::query::DegreeHistogramQuery>(Side::kLeft, 20))
      .Add(std::make_unique<gdp::query::DegreeHistogramQuery>(Side::kRight, 3));
  return workload;
}

void ExpectBitIdentical(const std::vector<gdp::query::QueryRunResult>& got,
                        const std::vector<gdp::query::QueryRunResult>& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].query_name, want[i].query_name) << context;
    EXPECT_EQ(got[i].sensitivity, want[i].sensitivity) << context << " q" << i;
    EXPECT_EQ(got[i].noise_stddev, want[i].noise_stddev)
        << context << " q" << i;
    EXPECT_EQ(got[i].truth, want[i].truth) << context << " q" << i;
    EXPECT_EQ(got[i].noisy, want[i].noisy) << context << " q" << i;
    EXPECT_EQ(got[i].mean_rer, want[i].mean_rer) << context << " q" << i;
    EXPECT_EQ(got[i].mae, want[i].mae) << context << " q" << i;
    EXPECT_EQ(got[i].rmse, want[i].rmse) << context << " q" << i;
  }
}

// Runs K Answers at every level of `compiled`, checks that none of them
// scanned, then checks each against Workload::Run from the same stream.
void ExpectPlanAnswersMatchScans(const CompiledDisclosure& compiled,
                                 const BudgetSpec& budget) {
  constexpr int kAnswersPerLevel = 3;
  const int num_levels = compiled.hierarchy().num_levels();
  std::vector<std::vector<std::vector<gdp::query::QueryRunResult>>> answers(
      static_cast<std::size_t>(num_levels));
  std::vector<Rng> starts;
  Rng rng(77);

  const std::uint64_t scans_before = Partition::DegreeSumScanCount();
  for (int level = 0; level < num_levels; ++level) {
    const gdp::query::Workload workload =
        AllKinds(compiled.hierarchy().level(level));
    for (int k = 0; k < kAnswersPerLevel; ++k) {
      starts.push_back(rng);
      answers[static_cast<std::size_t>(level)].push_back(
          compiled.Answer(workload, level, budget, rng));
    }
  }
  EXPECT_EQ(Partition::DegreeSumScanCount(), scans_before)
      << "Answer must read the plan, not scan the graph";

  std::size_t call = 0;
  for (int level = 0; level < num_levels; ++level) {
    const Partition& partition = compiled.hierarchy().level(level);
    const gdp::query::Workload workload = AllKinds(partition);
    for (int k = 0; k < kAnswersPerLevel; ++k) {
      Rng r = starts[call++];
      const auto want =
          workload.Run(compiled.graph(), partition, budget.noise,
                       budget.phase2_epsilon(), budget.delta, r);
      ExpectBitIdentical(
          answers[static_cast<std::size_t>(level)][static_cast<std::size_t>(k)],
          want, "level " + std::to_string(level) + " answer " +
                    std::to_string(k));
    }
  }
}

TEST(AnswerPlanTest, AnswersAtEveryLevelScanNothingAndMatchWorkloadRun) {
  const BipartiteGraph graph = TestGraph();
  Rng rng(11);
  const auto compiled = CompiledDisclosure::Compile(graph, SmallSpec(), rng);
  ExpectPlanAnswersMatchScans(*compiled, compiled->spec().budget);
}

TEST(AnswerPlanTest, LaplaceAndAnalyticBudgetsMatchToo) {
  const BipartiteGraph graph = TestGraph();
  Rng rng(13);
  const auto compiled = CompiledDisclosure::Compile(graph, SmallSpec(), rng);
  BudgetSpec budget = compiled->spec().budget;
  budget.noise = NoiseKind::kLaplace;
  ExpectPlanAnswersMatchScans(*compiled, budget);
  budget.noise = NoiseKind::kAnalyticGaussian;
  budget.epsilon_g = 2.5;
  ExpectPlanAnswersMatchScans(*compiled, budget);
}

TEST(AnswerPlanTest, EdgelessGraphTakesTheExactPath) {
  // Δℓ = 0 at every level: the count and group-count queries are released
  // exactly, the histograms (Δ = group size) still get noise.
  const BipartiteGraph graph(2, 2, {});
  std::vector<gdp::hier::GroupInfo> singles{
      {Side::kLeft, 1, 0}, {Side::kLeft, 1, 0},
      {Side::kRight, 1, 1}, {Side::kRight, 1, 1}};
  std::vector<Partition> levels;
  levels.emplace_back(std::vector<gdp::hier::GroupId>{0, 1},
                      std::vector<gdp::hier::GroupId>{2, 3}, std::move(singles));
  levels.push_back(Partition::TopLevel(2, 2));
  gdp::hier::GroupHierarchy hierarchy(std::move(levels));
  ReleasePlan plan = ReleasePlan::Build(graph, hierarchy);
  const auto compiled = CompiledDisclosure::FromPrecompiled(
      graph, SmallSpec(), std::move(hierarchy), std::move(plan), 0.0);

  ExpectPlanAnswersMatchScans(*compiled, compiled->spec().budget);

  Rng rng(3);
  const auto results =
      compiled->Answer(AllKinds(compiled->hierarchy().level(0)), 0,
                       compiled->spec().budget, rng);
  ASSERT_EQ(results.size(), 4u);
  for (int exact : {0, 1}) {
    EXPECT_EQ(results[static_cast<std::size_t>(exact)].sensitivity, 0.0);
    EXPECT_EQ(results[static_cast<std::size_t>(exact)].noisy,
              results[static_cast<std::size_t>(exact)].truth);
  }
  EXPECT_GT(results[2].sensitivity, 0.0);
}

}  // namespace
}  // namespace gdp::core
