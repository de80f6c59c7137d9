#include "core/session.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/consistency.hpp"
#include "core/pipeline.hpp"
#include "core/release_plan.hpp"
#include "graph/generators.hpp"
#include "hier/navigation.hpp"
#include "query/workload.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;

BipartiteGraph TestGraph() {
  Rng rng(3);
  gdp::graph::DblpLikeParams p;
  p.num_left = 500;
  p.num_right = 700;
  p.num_edges = 3000;
  return GenerateDblpLike(p, rng);
}

DisclosureConfig SmallConfig() {
  DisclosureConfig cfg;
  cfg.depth = 5;
  cfg.arity = 4;
  return cfg;
}

// ToSessionSpec() mirrors the one-shot grant (caps cover exactly one
// release); multi-release tests open with the default "audit only" caps.
SessionSpec MultiReleaseSpec(const DisclosureConfig& cfg) {
  SessionSpec spec = cfg.ToSessionSpec();
  spec.epsilon_cap = SessionSpec{}.epsilon_cap;
  spec.delta_cap = SessionSpec{}.delta_cap;
  return spec;
}

void ExpectBitIdentical(const MultiLevelRelease& a, const MultiLevelRelease& b,
                        const std::string& context) {
  ASSERT_EQ(a.num_levels(), b.num_levels()) << context;
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    const LevelRelease& la = a.level(lvl);
    const LevelRelease& lb = b.level(lvl);
    EXPECT_EQ(la.sensitivity, lb.sensitivity) << context << " level " << lvl;
    EXPECT_EQ(la.noise_stddev, lb.noise_stddev) << context << " level " << lvl;
    EXPECT_EQ(la.group_noise_stddev, lb.group_noise_stddev)
        << context << " level " << lvl;
    EXPECT_EQ(la.noisy_total, lb.noisy_total) << context << " level " << lvl;
    EXPECT_EQ(la.true_total, lb.true_total) << context << " level " << lvl;
    EXPECT_EQ(la.noisy_group_counts, lb.noisy_group_counts)
        << context << " level " << lvl;
  }
}

// The seed implementation of RunDisclosure, reproduced verbatim as the
// parity oracle: specializer + plan + engine composed by hand, exactly as
// the pre-session pipeline.cpp did.  The session/wrapper refactor must stay
// bit-identical to THIS, not merely to itself.
MultiLevelRelease ManualOneShot(const BipartiteGraph& graph,
                                const DisclosureConfig& config, Rng& rng) {
  const double eps_phase1 = config.epsilon_g * config.phase1_fraction;
  const double eps_phase2 = config.epsilon_g - eps_phase1;
  const int transitions = config.depth - 1;

  gdp::hier::SpecializationConfig spec;
  spec.depth = config.depth;
  spec.arity = config.arity;
  spec.epsilon_per_level =
      transitions > 0 ? eps_phase1 / static_cast<double>(transitions)
                      : eps_phase1;
  spec.quality = config.split_quality;
  spec.max_cut_candidates = config.max_cut_candidates;
  spec.validate_hierarchy = config.validate_hierarchy;

  const gdp::hier::Specializer specializer(spec);
  const auto built = specializer.BuildHierarchy(graph, rng);

  ReleaseConfig rel;
  rel.epsilon_g = eps_phase2;
  rel.delta = config.delta;
  rel.noise = config.noise;
  rel.include_group_counts = config.include_group_counts;
  rel.clamp_nonnegative = config.clamp_nonnegative;
  rel.noise_chunk_grain = config.noise_chunk_grain;

  const GroupDpEngine engine(rel);
  MultiLevelRelease release = [&] {
    if (config.num_threads == 1) {
      const ReleasePlan plan = ReleasePlan::Build(graph, built.hierarchy);
      return engine.ReleaseAll(plan, rng);
    }
    gdp::common::ThreadPool pool(config.num_threads);
    const ReleasePlan plan = ReleasePlan::Build(graph, built.hierarchy, pool);
    return engine.ReleaseAll(plan, rng, &pool);
  }();
  if (config.enforce_consistency) {
    release = EnforceHierarchicalConsistency(built.hierarchy, release);
  }
  return release;
}

// ---------- parity: session == one-shot == seed implementation ----------

TEST(SessionTest, WrapperMatchesSeedImplementationSequential) {
  const BipartiteGraph g = TestGraph();
  for (const std::uint64_t seed : {7u, 11u, 29u}) {
    Rng r1(seed);
    const MultiLevelRelease oracle = ManualOneShot(g, SmallConfig(), r1);
    Rng r2(seed);
    const DisclosureResult wrapped = RunDisclosure(g, SmallConfig(), r2);
    ExpectBitIdentical(oracle, wrapped.release,
                       "seed " + std::to_string(seed));
  }
}

TEST(SessionTest, WrapperMatchesSeedImplementationParallel) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  cfg.num_threads = 2;
  cfg.noise_chunk_grain = 256;  // small enough that level 0 really chunks
  Rng r1(17);
  const MultiLevelRelease oracle = ManualOneShot(g, cfg, r1);
  Rng r2(17);
  const DisclosureResult wrapped = RunDisclosure(g, cfg, r2);
  ExpectBitIdentical(oracle, wrapped.release, "parallel");
}

TEST(SessionTest, ReleaseMatchesRunDisclosureBothPaths) {
  // Satellite contract: for every (seed, config), DisclosureSession::Release
  // is bit-identical to RunDisclosure on the sequential AND parallel paths.
  const BipartiteGraph g = TestGraph();
  for (const bool parallel : {false, true}) {
    DisclosureConfig cfg = SmallConfig();
    if (parallel) {
      cfg.num_threads = 4;
      cfg.noise_chunk_grain = 256;
    }
    for (const std::uint64_t seed : {5u, 13u}) {
      Rng r1(seed);
      const DisclosureResult oneshot = RunDisclosure(g, cfg, r1);
      Rng r2(seed);
      DisclosureSession session =
          DisclosureSession::Open(g, cfg.ToSessionSpec(), r2);
      const MultiLevelRelease rel = session.Release(cfg.ToBudgetSpec(), r2);
      ExpectBitIdentical(oneshot.release, rel,
                         (parallel ? "parallel seed " : "sequential seed ") +
                             std::to_string(seed));
    }
  }
}

TEST(SessionTest, SecondReleaseWithDifferentEpsilonMatchesFreshOneShot) {
  // ε scales by powers of two with the fraction scaling inversely, so every
  // sweep point's phase-1 budget is bit-equal (0.4·0.25 == 0.8·0.125 == 0.1
  // exactly in binary) and the hierarchies coincide.
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg1 = SmallConfig();
  cfg1.epsilon_g = 0.4;
  cfg1.phase1_fraction = 0.25;
  DisclosureConfig cfg2 = SmallConfig();
  cfg2.epsilon_g = 0.8;
  cfg2.phase1_fraction = 0.125;

  Rng rs(23);
  DisclosureSession session =
      DisclosureSession::Open(g, MultiReleaseSpec(cfg1), rs);
  // Post-Open rng state == post-Phase-1 state of any one-shot with the same
  // seed and phase-1 budget; each release resumes from a copy of it.
  Rng r_first = rs;
  const MultiLevelRelease first = session.Release(cfg1.ToBudgetSpec(), r_first);
  Rng r_second = rs;
  const MultiLevelRelease second =
      session.Release(cfg2.ToBudgetSpec(), r_second);

  Rng rf1(23);
  const DisclosureResult fresh1 = RunDisclosure(g, cfg1, rf1);
  Rng rf2(23);
  const DisclosureResult fresh2 = RunDisclosure(g, cfg2, rf2);
  ExpectBitIdentical(first, fresh1.release, "first release");
  ExpectBitIdentical(second, fresh2.release, "second release, new eps");
}

TEST(SessionTest, SweepReleasesBitIdenticalToOneShots) {
  // Acceptance: a 4-point ε-sweep through one session, every point
  // bit-identical to the corresponding one-shot RunDisclosure.
  const BipartiteGraph g = TestGraph();
  const double eps_points[] = {0.2, 0.4, 0.8, 1.6};
  const double fractions[] = {0.5, 0.25, 0.125, 0.0625};  // phase-1 ε = 0.1

  DisclosureConfig cfg0 = SmallConfig();
  cfg0.epsilon_g = eps_points[0];
  cfg0.phase1_fraction = fractions[0];
  Rng rs(41);
  DisclosureSession session =
      DisclosureSession::Open(g, MultiReleaseSpec(cfg0), rs);
  for (int i = 0; i < 4; ++i) {
    DisclosureConfig cfg = SmallConfig();
    cfg.epsilon_g = eps_points[i];
    cfg.phase1_fraction = fractions[i];
    Rng r_point = rs;  // every one-shot resumes from the post-Phase-1 state
    const MultiLevelRelease rel = session.Release(cfg.ToBudgetSpec(), r_point);
    Rng r_fresh(41);
    const DisclosureResult fresh = RunDisclosure(g, cfg, r_fresh);
    ExpectBitIdentical(rel, fresh.release, "sweep point " + std::to_string(i));
  }
  // Phase 1 once + four phase-2 charges.
  EXPECT_EQ(session.ledger().num_charges(), 5u);
}

// ---------- the single-scan guarantee ----------

TEST(SessionTest, FourPointSweepPerformsExactlyOneNodeScan) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(7);
  const std::uint64_t scans_before = gdp::hier::Partition::DegreeSumScanCount();
  DisclosureSession session =
      DisclosureSession::Open(g, MultiReleaseSpec(cfg), rng);
  std::vector<BudgetSpec> budgets;
  for (const double eps : {0.3, 0.5, 0.7, 0.9}) {
    BudgetSpec b = cfg.ToBudgetSpec();
    b.epsilon_g = eps;
    budgets.push_back(b);
  }
  const auto releases = session.Sweep(budgets, rng);
  ASSERT_EQ(releases.size(), 4u);
  for (const auto& rel : releases) {
    EXPECT_EQ(rel.num_levels(), 6);
  }
  EXPECT_EQ(gdp::hier::Partition::DegreeSumScanCount() - scans_before, 1u)
      << "a session sweep must touch the node set exactly once (plan build)";
}

TEST(SessionTest, SweepPointsCarryIndependentNoise) {
  // Same ε at two sweep positions: forked per-point streams must give
  // different draws (no noise reuse across points).
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, MultiReleaseSpec(cfg), rng);
  const std::vector<BudgetSpec> budgets(2, cfg.ToBudgetSpec());
  const auto releases = session.Sweep(budgets, rng);
  EXPECT_NE(releases[0].level(2).noisy_total, releases[1].level(2).noisy_total);
}

// ---------- guard rail: typed up-front budget rejection ----------

TEST(SessionTest, ReleaseRejectsUncalibratableBudgetUpFront) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg.ToSessionSpec(), rng);
  const std::size_t charges_before = session.ledger().num_charges();
  const Rng rng_snapshot = rng;

  BudgetSpec bad = cfg.ToBudgetSpec();
  bad.epsilon_g = -1.0;
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);
  bad = cfg.ToBudgetSpec();
  bad.epsilon_g = 0.0;
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);
  bad = cfg.ToBudgetSpec();
  bad.delta = 0.0;
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);
  bad = cfg.ToBudgetSpec();
  bad.delta = 1.0;
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);
  bad = cfg.ToBudgetSpec();
  bad.phase1_fraction = 1.0;  // leaves zero phase-2 budget
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);
  bad = cfg.ToBudgetSpec();
  bad.phase1_fraction = -0.2;
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);

  // Rejected before any draw or charge: ledger untouched, rng untouched.
  EXPECT_EQ(session.ledger().num_charges(), charges_before);
  Rng control = rng_snapshot;
  const MultiLevelRelease after_failures =
      session.Release(cfg.ToBudgetSpec(), rng);
  DisclosureSession control_session = [&] {
    Rng open_rng(7);
    return DisclosureSession::Open(g, cfg.ToSessionSpec(), open_rng);
  }();
  const MultiLevelRelease control_release =
      control_session.Release(cfg.ToBudgetSpec(), control);
  ExpectBitIdentical(after_failures, control_release,
                     "release after rejected budgets");
}

TEST(SessionTest, SweepRejectsWholeBatchOnOneBadPoint) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg.ToSessionSpec(), rng);
  std::vector<BudgetSpec> budgets(3, cfg.ToBudgetSpec());
  budgets[2].delta = -1.0;  // the LAST point is bad
  const std::size_t charges_before = session.ledger().num_charges();
  EXPECT_THROW((void)session.Sweep(budgets, rng),
               gdp::common::InvalidBudgetError);
  // Nothing was drawn or charged for the two good points either.
  EXPECT_EQ(session.ledger().num_charges(), charges_before);
}

TEST(SessionTest, InvalidBudgetErrorIsAnInvalidArgument) {
  // Pre-session callers catch std::invalid_argument; the typed error must
  // still satisfy them.
  const gdp::common::InvalidBudgetError err("x");
  const std::invalid_argument* base = &err;
  EXPECT_NE(base, nullptr);
}

// ---------- ledger across the session lifetime ----------

TEST(SessionTest, LedgerAccumulatesPerReleaseWithLabels) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, MultiReleaseSpec(cfg), rng);
  ASSERT_EQ(session.ledger().num_charges(), 1u);  // phase 1
  EXPECT_NE(session.ledger().history()[0].label.find("phase1"),
            std::string::npos);
  (void)session.Release(cfg.ToBudgetSpec(), rng);
  (void)session.Release(cfg.ToBudgetSpec(), rng, "custom audit label");
  ASSERT_EQ(session.ledger().num_charges(), 3u);
  EXPECT_EQ(session.ledger().history()[2].label, "custom audit label");
  EXPECT_EQ(session.num_releases(), 2);
  const double expected =
      session.phase1_epsilon_spent() + 2.0 * cfg.ToBudgetSpec().phase2_epsilon();
  EXPECT_NEAR(session.ledger().epsilon_spent(), expected, 1e-12);
}

TEST(SessionTest, ReleaseBeyondSessionCapThrowsBeforeDrawing) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  SessionSpec spec = cfg.ToSessionSpec();
  // Grant covers phase 1 plus exactly one release.
  spec.epsilon_cap =
      spec.budget.phase1_epsilon() + spec.budget.phase2_epsilon();
  Rng rng(7);
  DisclosureSession session = DisclosureSession::Open(g, spec, rng);
  (void)session.Release(rng);
  const Rng rng_snapshot = rng;
  EXPECT_THROW((void)session.Release(rng), gdp::common::BudgetExhaustedError);
  // The over-cap attempt drew nothing.
  Rng expected = rng_snapshot;
  EXPECT_EQ(rng(), expected());
}

TEST(SessionTest, SweepBeyondGrantRejectsWholeBatchAtomically) {
  // A sweep the session grant cannot cover must fail BEFORE the first draw,
  // not mid-batch with some points already drawn and charged.
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  SessionSpec spec = cfg.ToSessionSpec();
  // Grant covers phase 1 plus two releases; ask for three.
  spec.epsilon_cap =
      spec.budget.phase1_epsilon() + 2.0 * spec.budget.phase2_epsilon();
  Rng rng(7);
  DisclosureSession session = DisclosureSession::Open(g, spec, rng);
  const std::vector<BudgetSpec> budgets(3, cfg.ToBudgetSpec());
  const std::size_t charges_before = session.ledger().num_charges();
  const Rng rng_snapshot = rng;
  EXPECT_THROW((void)session.Sweep(budgets, rng),
               gdp::common::BudgetExhaustedError);
  EXPECT_EQ(session.ledger().num_charges(), charges_before);
  Rng expected = rng_snapshot;
  EXPECT_EQ(rng(), expected());
  // The two-point sweep the grant covers still goes through.
  const std::vector<BudgetSpec> affordable(2, cfg.ToBudgetSpec());
  EXPECT_EQ(session.Sweep(affordable, rng).size(), 2u);
}

TEST(SessionTest, AnswerLabelsAreUniquePerCall) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, MultiReleaseSpec(cfg), rng);
  gdp::query::Workload workload;
  workload.Add(std::make_unique<gdp::query::AssociationCountQuery>());
  (void)session.Answer(workload, 2, cfg.ToBudgetSpec(), rng);
  (void)session.Answer(workload, 2, cfg.ToBudgetSpec(), rng);
  const auto& charges = session.ledger().history();
  ASSERT_EQ(charges.size(), 3u);
  EXPECT_NE(charges[1].label.find("answer[0]"), std::string::npos);
  EXPECT_NE(charges[2].label.find("answer[1]"), std::string::npos);
}

TEST(SessionTest, SweepLabelsAreSweepTagged) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, MultiReleaseSpec(cfg), rng);
  std::vector<BudgetSpec> budgets(2, cfg.ToBudgetSpec());
  (void)session.Sweep(budgets, rng);
  const auto& charges = session.ledger().history();
  ASSERT_EQ(charges.size(), 3u);
  EXPECT_NE(charges[1].label.find("sweep[0]"), std::string::npos);
  EXPECT_NE(charges[2].label.find("sweep[1]"), std::string::npos);
}

// ---------- drilldown / workload / post-processing through the session ----

TEST(SessionTest, DrilldownMatchesDirectDrillDown) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(31);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg.ToSessionSpec(), rng);
  const MultiLevelRelease rel = session.Release(rng);
  const auto via_session =
      session.Drilldown(rel, gdp::graph::Side::kLeft, 42, 5, 1);
  const gdp::hier::HierarchyIndex index(session.hierarchy());
  const auto direct = DrillDown(rel, index, gdp::graph::Side::kLeft, 42, 5, 1);
  ASSERT_EQ(via_session.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_session[i].level, direct[i].level);
    EXPECT_EQ(via_session[i].group, direct[i].group);
    EXPECT_EQ(via_session[i].noisy_count, direct[i].noisy_count);
  }
}

TEST(SessionTest, AnswerMatchesWorkloadRunAndChargesLedger) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(37);
  DisclosureSession session =
      DisclosureSession::Open(g, MultiReleaseSpec(cfg), rng);
  gdp::query::Workload workload;
  workload.Add(std::make_unique<gdp::query::AssociationCountQuery>())
      .Add(std::make_unique<gdp::query::DegreeHistogramQuery>(
          gdp::graph::Side::kLeft, 20));

  const BudgetSpec budget = cfg.ToBudgetSpec();
  Rng r_direct = rng;
  const auto direct =
      workload.Run(g, session.hierarchy().level(2), budget.noise,
                   budget.phase2_epsilon(), budget.delta, r_direct);
  const std::size_t charges_before = session.ledger().num_charges();
  const auto via_session = session.Answer(workload, 2, budget, rng);
  ASSERT_EQ(via_session.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_session[i].noisy, direct[i].noisy) << "query " << i;
  }
  ASSERT_EQ(session.ledger().num_charges(), charges_before + 1);
  const auto& charge = session.ledger().history().back();
  EXPECT_DOUBLE_EQ(charge.event.TotalEpsilon(), 2.0 * budget.phase2_epsilon());
  EXPECT_DOUBLE_EQ(charge.event.TotalDelta(), 2.0 * budget.delta);
}

TEST(SessionTest, AnswerRejectsBadLevelWithoutChargingLedger) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, MultiReleaseSpec(cfg), rng);
  gdp::query::Workload workload;
  workload.Add(std::make_unique<gdp::query::AssociationCountQuery>());
  const std::size_t charges_before = session.ledger().num_charges();
  EXPECT_THROW((void)session.Answer(workload, 99, cfg.ToBudgetSpec(), rng),
               std::out_of_range);
  EXPECT_THROW((void)session.Answer(workload, -1, cfg.ToBudgetSpec(), rng),
               std::out_of_range);
  EXPECT_EQ(session.ledger().num_charges(), charges_before)
      << "a rejected Answer must not leave phantom spend on the ledger";
}

TEST(SessionTest, OpenRejectsBadCapsBeforePhase1) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  SessionSpec spec = cfg.ToSessionSpec();
  spec.epsilon_cap = 0.0;
  Rng rng(7);
  const Rng rng_snapshot = rng;
  EXPECT_THROW((void)DisclosureSession::Open(g, spec, rng),
               std::invalid_argument);
  spec = cfg.ToSessionSpec();
  spec.delta_cap = 1.0;
  EXPECT_THROW((void)DisclosureSession::Open(g, spec, rng),
               std::invalid_argument);
  // Rejected before Phase 1 consumed any randomness.
  Rng expected = rng_snapshot;
  EXPECT_EQ(rng(), expected());
}

TEST(SessionTest, ConsistencySessionReleasesAreConsistent) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  cfg.enforce_consistency = true;
  Rng rng(21);
  DisclosureSession session =
      DisclosureSession::Open(g, MultiReleaseSpec(cfg), rng);
  for (int i = 0; i < 2; ++i) {
    const MultiLevelRelease rel = session.Release(rng);
    EXPECT_TRUE(IsHierarchicallyConsistent(session.hierarchy(), rel, 1e-6));
  }
}

TEST(SessionTest, OpenRejectsConsistencyWithoutGroupCounts) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  cfg.enforce_consistency = true;
  cfg.include_group_counts = false;
  Rng rng(23);
  EXPECT_THROW((void)DisclosureSession::Open(g, cfg.ToSessionSpec(), rng),
               std::invalid_argument);
}

TEST(SessionTest, ParallelSessionInvariantAcrossThreadCounts) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  cfg.noise_chunk_grain = 256;
  std::vector<MultiLevelRelease> releases;
  for (const int threads : {2, 8}) {
    cfg.num_threads = threads;
    Rng rng(7);
    DisclosureSession session =
        DisclosureSession::Open(g, cfg.ToSessionSpec(), rng);
    releases.push_back(session.Release(rng));
  }
  ExpectBitIdentical(releases[0], releases[1], "2 vs 8 threads");
}

TEST(SessionTest, SessionIsMovable) {
  const BipartiteGraph g = TestGraph();
  DisclosureConfig cfg = SmallConfig();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg.ToSessionSpec(), rng);
  DisclosureSession moved = std::move(session);
  const MultiLevelRelease rel = moved.Release(rng);
  EXPECT_EQ(rel.num_levels(), 6);
  EXPECT_EQ(moved.num_releases(), 1);
}

// ---------- spec-struct mapping ----------

TEST(SessionTest, ConfigToSpecMapsEveryField) {
  DisclosureConfig cfg;
  cfg.epsilon_g = 0.7;
  cfg.delta = 1e-6;
  cfg.phase1_fraction = 0.2;
  cfg.depth = 6;
  cfg.arity = 8;
  cfg.split_quality = gdp::hier::SplitQuality::kNodeBalance;
  cfg.max_cut_candidates = 31;
  cfg.noise = NoiseKind::kLaplace;
  cfg.include_group_counts = false;
  cfg.clamp_nonnegative = true;
  cfg.validate_hierarchy = false;
  cfg.enforce_consistency = false;
  cfg.num_threads = 3;
  cfg.noise_chunk_grain = 512;

  const SessionSpec spec = cfg.ToSessionSpec();
  EXPECT_EQ(spec.hierarchy.depth, 6);
  EXPECT_EQ(spec.hierarchy.arity, 8);
  EXPECT_EQ(spec.hierarchy.split_quality, gdp::hier::SplitQuality::kNodeBalance);
  EXPECT_EQ(spec.hierarchy.max_cut_candidates, 31);
  EXPECT_FALSE(spec.hierarchy.validate_hierarchy);
  EXPECT_DOUBLE_EQ(spec.budget.epsilon_g, 0.7);
  EXPECT_DOUBLE_EQ(spec.budget.delta, 1e-6);
  EXPECT_DOUBLE_EQ(spec.budget.phase1_fraction, 0.2);
  EXPECT_EQ(spec.budget.noise, NoiseKind::kLaplace);
  EXPECT_EQ(spec.exec.num_threads, 3);
  EXPECT_EQ(spec.exec.noise_chunk_grain, 512u);
  EXPECT_FALSE(spec.exec.include_group_counts);
  EXPECT_TRUE(spec.exec.clamp_nonnegative);
  EXPECT_FALSE(spec.exec.enforce_consistency);
  EXPECT_DOUBLE_EQ(spec.epsilon_cap, 0.7);
  EXPECT_DOUBLE_EQ(spec.delta_cap, 2e-6);
  EXPECT_DOUBLE_EQ(spec.budget.phase1_epsilon(), 0.7 * 0.2);
  EXPECT_DOUBLE_EQ(spec.budget.phase2_epsilon(), 0.7 - 0.7 * 0.2);
}

}  // namespace
}  // namespace gdp::core
