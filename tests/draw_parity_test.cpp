// Draw parity: every release is the all-levels case of one ranged draw
// primitive (GroupDpEngine::ReleaseLevels), so
//  - a subset draw of [l, l] equals level l of the full draw, bit for bit,
//    with no pool and with pools of 1, 2 and 8 threads,
//  - the drilldown chain from an [l, coarsest] draw equals the chain from
//    the full draw,
//  - full draws are identical across all pool sizes,
//  - a ranged draw advances the caller's stream exactly as a full one.
// The pooled cases run under TSan in CI.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/drilldown.hpp"
#include "core/group_dp_engine.hpp"
#include "core/release_plan.hpp"
#include "graph/generators.hpp"
#include "hier/navigation.hpp"
#include "hier/specialization.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;
using gdp::hier::GroupHierarchy;

BipartiteGraph TestGraph() {
  Rng rng(3);
  return gdp::graph::GenerateUniformRandom(64, 64, 1000, rng);
}

GroupHierarchy TestHierarchy(const BipartiteGraph& g, int depth) {
  gdp::hier::SpecializationConfig cfg;
  cfg.depth = depth;
  const gdp::hier::Specializer spec(cfg);
  Rng rng(5);
  return spec.BuildHierarchy(g, rng).hierarchy;
}

// Exact (bitwise) equality of two releases, every field.
void ExpectBitIdentical(const MultiLevelRelease& a, const MultiLevelRelease& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    const LevelRelease& x = a.level(lvl);
    const LevelRelease& y = b.level(lvl);
    EXPECT_EQ(x.level, y.level);
    EXPECT_EQ(x.sensitivity, y.sensitivity) << "level " << lvl;
    EXPECT_EQ(x.noise_stddev, y.noise_stddev) << "level " << lvl;
    EXPECT_EQ(x.group_noise_stddev, y.group_noise_stddev) << "level " << lvl;
    EXPECT_EQ(x.true_total, y.true_total) << "level " << lvl;
    EXPECT_EQ(x.noisy_total, y.noisy_total) << "level " << lvl;
    EXPECT_EQ(x.true_group_counts, y.true_group_counts) << "level " << lvl;
    EXPECT_EQ(x.noisy_group_counts, y.noisy_group_counts) << "level " << lvl;
  }
}

struct RangedFixture {
  BipartiteGraph graph = TestGraph();
  GroupHierarchy hierarchy = TestHierarchy(graph, 5);
  ReleasePlan plan = ReleasePlan::Build(graph, hierarchy);
  GroupDpEngine engine{[] {
    ReleaseConfig cfg;
    cfg.noise_chunk_grain = 16;  // multi-chunk levels on a small graph
    return cfg;
  }()};
};

// nullptr = no pool; otherwise a pool of that many threads.
std::unique_ptr<gdp::common::ThreadPool> MaybePool(int threads) {
  return threads == 0 ? nullptr
                      : std::make_unique<gdp::common::ThreadPool>(threads);
}

TEST(RangedDrawTest, FullDrawIdenticalForEveryPoolSize) {
  const RangedFixture f;
  Rng base_rng(211);
  const MultiLevelRelease base = f.engine.ReleaseAll(f.plan, base_rng);
  for (const int threads : {1, 2, 8}) {
    const auto pool = MaybePool(threads);
    Rng rng(211);
    ExpectBitIdentical(base, f.engine.ReleaseAll(f.plan, rng, pool.get()));
    Rng after(211);
    (void)f.engine.ReleaseAll(f.plan, after);
    EXPECT_EQ(rng(), after()) << threads << " threads";
  }
}

TEST(RangedDrawTest, SingleLevelDrawEqualsThatLevelOfTheFullDraw) {
  const RangedFixture f;
  Rng full_rng(223);
  const MultiLevelRelease full = f.engine.ReleaseAll(f.plan, full_rng);
  const std::uint64_t next_after_full = full_rng();
  for (const int threads : {0, 1, 2, 8}) {
    const auto pool = MaybePool(threads);
    for (int level = 0; level < f.plan.num_levels(); ++level) {
      Rng rng(223);
      const std::vector<LevelRelease> one =
          f.engine.ReleaseLevels(f.plan, level, level, rng, pool.get());
      ASSERT_EQ(one.size(), 1u);
      const LevelRelease& want = full.level(level);
      EXPECT_EQ(one[0].level, level);
      EXPECT_EQ(one[0].sensitivity, want.sensitivity);
      EXPECT_EQ(one[0].noise_stddev, want.noise_stddev);
      EXPECT_EQ(one[0].group_noise_stddev, want.group_noise_stddev);
      EXPECT_EQ(one[0].noisy_total, want.noisy_total)
          << "level " << level << ", " << threads << " threads";
      EXPECT_EQ(one[0].noisy_group_counts, want.noisy_group_counts)
          << "level " << level << ", " << threads << " threads";
      // The caller's stream advances exactly as under the full draw.
      EXPECT_EQ(rng(), next_after_full);
    }
  }
}

TEST(RangedDrawTest, DrilldownChainFromRangedDrawEqualsFullDraw) {
  const RangedFixture f;
  const gdp::hier::HierarchyIndex index(f.hierarchy);
  const int coarsest = f.plan.num_levels() - 1;
  Rng full_rng(227);
  const MultiLevelRelease full = f.engine.ReleaseAll(f.plan, full_rng);
  for (int level = 0; level <= coarsest; ++level) {
    Rng rng(227);
    const std::vector<LevelRelease> ranged =
        f.engine.ReleaseLevels(f.plan, level, coarsest, rng);
    for (const gdp::hier::NodeIndex v : {0u, 17u, 63u}) {
      const auto want = DrillDown(full, index, gdp::hier::Side::kLeft, v,
                                  coarsest, level);
      const auto got = DrillDown(ranged, index, gdp::hier::Side::kLeft, v);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].level, want[i].level);
        EXPECT_EQ(got[i].group, want[i].group);
        EXPECT_EQ(got[i].group_size, want[i].group_size);
        EXPECT_EQ(got[i].noisy_count, want[i].noisy_count)
            << "from level " << level << ", node " << v;
      }
    }
  }
}

TEST(RangedDrawTest, PerLevelBudgetsFollowTheSameDrawOrder) {
  const RangedFixture f;
  const std::vector<double> eps = {0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  ASSERT_EQ(eps.size(), static_cast<std::size_t>(f.plan.num_levels()));
  Rng full_rng(229);
  const MultiLevelRelease full(f.engine.ReleaseLevels(
      f.plan, 0, f.plan.num_levels() - 1, full_rng, nullptr, eps));
  Rng rng(229);
  const std::vector<LevelRelease> two =
      f.engine.ReleaseLevels(f.plan, 2, 3, rng, nullptr, eps);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].noisy_group_counts, full.level(2).noisy_group_counts);
  EXPECT_EQ(two[1].noisy_total, full.level(3).noisy_total);
}

TEST(RangedDrawTest, BadRangeThrowsBeforeDrawing) {
  const RangedFixture f;
  Rng rng(233);
  const Rng snapshot = rng;
  EXPECT_THROW((void)f.engine.ReleaseLevels(f.plan, 3, 2, rng),
               std::out_of_range);
  EXPECT_THROW((void)f.engine.ReleaseLevels(f.plan, 0, f.plan.num_levels(), rng),
               std::out_of_range);
  EXPECT_THROW((void)f.engine.ReleaseLevels(f.plan, -1, 0, rng),
               std::out_of_range);
  Rng expected = snapshot;
  EXPECT_EQ(rng(), expected());
}

}  // namespace
}  // namespace gdp::core
