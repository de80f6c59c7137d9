// Parity and determinism guarantees of the plan-based release engine:
//  - plan-based ReleaseAll is BIT-identical to the legacy per-level path,
//  - output is invariant across pool sizes, no pool included,
//  - the mechanism cache never perturbs results.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/group_dp_engine.hpp"
#include "core/release_plan.hpp"
#include "graph/generators.hpp"
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

GroupHierarchy TestHierarchy(const BipartiteGraph& g, int depth = 4) {
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

TEST(PlanParityTest, PlannedReleaseAllBitIdenticalToLegacy) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const GroupDpEngine engine{ReleaseConfig{}};
  Rng planned_rng(43);
  Rng legacy_rng(43);
  ExpectBitIdentical(engine.ReleaseAll(g, h, planned_rng),
                     engine.ReleaseAllLegacy(g, h, legacy_rng));
}

TEST(PlanParityTest, ParityHoldsForEveryNoiseKind) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  for (const NoiseKind kind :
       {NoiseKind::kGaussian, NoiseKind::kAnalyticGaussian, NoiseKind::kLaplace,
        NoiseKind::kDiscreteGaussian, NoiseKind::kGeometric}) {
    ReleaseConfig cfg;
    cfg.noise = kind;
    const GroupDpEngine engine(cfg);
    Rng planned_rng(47);
    Rng legacy_rng(47);
    ExpectBitIdentical(engine.ReleaseAll(g, h, planned_rng),
                       engine.ReleaseAllLegacy(g, h, legacy_rng));
  }
}

TEST(PlanParityTest, ParityHoldsWithoutGroupCountsAndWithClamp) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  ReleaseConfig cfg;
  cfg.include_group_counts = false;
  cfg.clamp_nonnegative = true;
  cfg.epsilon_g = 0.1;
  const GroupDpEngine engine(cfg);
  Rng planned_rng(53);
  Rng legacy_rng(53);
  ExpectBitIdentical(engine.ReleaseAll(g, h, planned_rng),
                     engine.ReleaseAllLegacy(g, h, legacy_rng));
}

TEST(PlanParityTest, UniformBudgetsMatchConfiguredEpsilonPath) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const GroupDpEngine engine{ReleaseConfig{}};
  const std::vector<double> budgets(
      static_cast<std::size_t>(h.num_levels()),
      engine.config().epsilon_g);
  Rng uniform_rng(59);
  Rng budget_rng(59);
  ExpectBitIdentical(engine.ReleaseAll(g, h, uniform_rng),
                     engine.ReleaseAllWithBudgets(g, h, budgets, budget_rng));
}

TEST(PlanParityTest, WarmMechanismCacheDoesNotChangeResults) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const GroupDpEngine warm{ReleaseConfig{}};
  {
    Rng warmup(61);
    (void)warm.ReleaseAll(g, h, warmup);  // populate the cache
  }
  const GroupDpEngine cold{ReleaseConfig{}};
  Rng warm_rng(67);
  Rng cold_rng(67);
  ExpectBitIdentical(warm.ReleaseAll(g, h, warm_rng),
                     cold.ReleaseAll(g, h, cold_rng));
}

TEST(ParallelReleaseTest, OutputInvariantAcrossThreadCounts) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g, 5);
  const GroupDpEngine engine{ReleaseConfig{}};
  Rng rng1(71);
  const MultiLevelRelease one = engine.ParallelReleaseAll(g, h, rng1, 1);
  Rng rng2(71);
  const MultiLevelRelease two = engine.ParallelReleaseAll(g, h, rng2, 2);
  Rng rng8(71);
  const MultiLevelRelease eight = engine.ParallelReleaseAll(g, h, rng8, 8);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, eight);
}

TEST(ParallelReleaseTest, SeedDeterministicAndSeedSensitive) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const GroupDpEngine engine{ReleaseConfig{}};
  Rng a1(73);
  Rng a2(73);
  ExpectBitIdentical(engine.ParallelReleaseAll(g, h, a1, 4),
                     engine.ParallelReleaseAll(g, h, a2, 4));
  Rng b(79);
  const MultiLevelRelease other = engine.ParallelReleaseAll(g, h, b, 4);
  Rng a3(73);
  const MultiLevelRelease base = engine.ParallelReleaseAll(g, h, a3, 4);
  bool any_differs = false;
  for (int lvl = 0; lvl < base.num_levels(); ++lvl) {
    any_differs |= base.level(lvl).noisy_total != other.level(lvl).noisy_total;
  }
  EXPECT_TRUE(any_differs);
}

TEST(ParallelReleaseTest, SharedPlanAndPoolReuse) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const GroupDpEngine engine{ReleaseConfig{}};
  const ReleasePlan plan = ReleasePlan::Build(g, h);
  gdp::common::ThreadPool pool(3);
  Rng r1(83);
  Rng r2(83);
  // Same pool twice, same seed: identical output; and identical to the
  // convenience overload that builds its own plan/pool.
  ExpectBitIdentical(engine.ReleaseAll(plan, r1, &pool),
                     engine.ReleaseAll(plan, r2, &pool));
  Rng r3(83);
  Rng r4(83);
  ExpectBitIdentical(engine.ReleaseAll(plan, r3, &pool),
                     engine.ParallelReleaseAll(g, h, r4, 2));
}

TEST(ParallelReleaseTest, WellFormedRelease) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const GroupDpEngine engine{ReleaseConfig{}};
  Rng rng(89);
  const MultiLevelRelease r = engine.ParallelReleaseAll(g, h, rng, 0);
  ASSERT_EQ(r.num_levels(), h.num_levels());
  for (int lvl = 0; lvl < r.num_levels(); ++lvl) {
    EXPECT_EQ(r.level(lvl).level, lvl);
    EXPECT_GT(r.level(lvl).noise_stddev, 0.0);
    EXPECT_EQ(r.level(lvl).true_group_counts.size(),
              h.level(lvl).num_groups());
  }
}

// ---- Within-level chunked vector noise (PR 2 tentpole) ----
//
// With noise_chunk_grain = 16 the 128-group singleton level splits into 8
// chunks, so these tests exercise the real chunked path on a small graph.

TEST(WithinLevelParallelTest, ChunkedNoiseBitIdenticalAcross1_2_8Threads) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g, 5);
  ReleaseConfig cfg;
  cfg.noise_chunk_grain = 16;
  const GroupDpEngine engine(cfg);
  Rng rng1(101);
  const MultiLevelRelease one = engine.ParallelReleaseAll(g, h, rng1, 1);
  Rng rng2(101);
  const MultiLevelRelease two = engine.ParallelReleaseAll(g, h, rng2, 2);
  Rng rng8(101);
  const MultiLevelRelease eight = engine.ParallelReleaseAll(g, h, rng8, 8);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, eight);
}

TEST(WithinLevelParallelTest, GrainIsPartOfTheOutputContract) {
  // One RNG substream per chunk: a different grain re-splits the stream, so
  // the released group counts must change.  (Thread count never does —
  // pinned above.)
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  ReleaseConfig coarse_cfg;
  coarse_cfg.noise_chunk_grain = 32;
  ReleaseConfig fine_cfg;
  fine_cfg.noise_chunk_grain = 16;
  const GroupDpEngine coarse(coarse_cfg);
  const GroupDpEngine fine(fine_cfg);
  Rng r1(103);
  Rng r2(103);
  const MultiLevelRelease a = coarse.ParallelReleaseAll(g, h, r1, 4);
  const MultiLevelRelease b = fine.ParallelReleaseAll(g, h, r2, 4);
  bool any_differs = false;
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    any_differs |=
        a.level(lvl).noisy_group_counts != b.level(lvl).noisy_group_counts;
  }
  EXPECT_TRUE(any_differs);
}

TEST(WithinLevelParallelTest, LevelDrawIdenticalWithAndWithoutPool) {
  // Chunk substreams are forked whether or not a pool is present, so a
  // multi-chunk level draws the same values either way.
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  ReleaseConfig cfg;
  cfg.noise_chunk_grain = 16;  // 128 singleton groups -> 8 chunks
  const GroupDpEngine engine(cfg);
  const ReleasePlan plan = ReleasePlan::Build(g, h);
  gdp::common::ThreadPool pool(4);
  Rng with_pool(107);
  Rng without_pool(107);
  const LevelRelease a =
      engine.ReleaseLevelFromPlan(plan, 0, 0.999, with_pool, &pool);
  const LevelRelease b =
      engine.ReleaseLevelFromPlan(plan, 0, 0.999, without_pool);
  EXPECT_EQ(a.noisy_total, b.noisy_total);
  EXPECT_EQ(a.noisy_group_counts, b.noisy_group_counts);
  EXPECT_EQ(with_pool(), without_pool());
}

TEST(MechanismCacheTest, MemoizesByCalibrationKey) {
  MechanismCache cache;
  const auto& a = cache.Get(NoiseKind::kGaussian, 0.9, 1e-5, 10.0);
  const auto& b = cache.Get(NoiseKind::kGaussian, 0.9, 1e-5, 10.0);
  EXPECT_EQ(&a, &b);  // same instance, not a re-derivation
  EXPECT_EQ(cache.size(), 1u);
  (void)cache.Get(NoiseKind::kGaussian, 0.9, 1e-5, 20.0);
  (void)cache.Get(NoiseKind::kLaplace, 0.9, 1e-5, 10.0);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(MechanismCacheTest, CachedStddevMatchesFreshMechanism) {
  const GroupDpEngine engine{ReleaseConfig{}};
  const auto fresh = MakeMechanism(NoiseKind::kGaussian, 0.999, 1e-5, 500.0);
  EXPECT_EQ(engine.NoiseStddevFor(500.0), fresh->NoiseStddev());
  // Second lookup hits the cache and must agree exactly.
  EXPECT_EQ(engine.NoiseStddevFor(500.0), fresh->NoiseStddev());
}

}  // namespace
}  // namespace gdp::core
