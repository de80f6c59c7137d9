// Phase 2 of the paper's pipeline: group-DP noise injection.
//
// For each hierarchy level ℓ the engine computes the group-level sensitivity
// Δℓ (max incident-edge count over level-ℓ groups) and perturbs the
// association-count statistics with noise calibrated to (εg, δ, Δℓ).  By the
// Gaussian/Laplace mechanism guarantee, each level's release satisfies
// εg-group-DP with respect to level-ℓ group adjacency.
//
// ONE DRAW ORDER: every release goes through ReleaseLevels, which forks one
// RNG stream per hierarchy level from the caller's stream, in level order,
// and then draws only the requested levels.  Inside a level the scalar total
// comes off the level's stream first; the per-group vector is then drawn in
// fixed-size chunks (ReleaseConfig::noise_chunk_grain groups each), one
// substream per chunk forked from the level's stream in chunk order —
// whether or not a pool is present.  Consequences, all pinned by
// draw_parity_test and parallel_release_test:
//   * a subset draw of levels [a, b] is bit-identical to levels a..b of a
//     full draw, and advances the caller's stream by exactly as much;
//   * output never depends on the pool or its thread count (1 included);
//   * the multi-level entry points below (plan-based, per-level budgets,
//     pooled, and the legacy node-scan oracle) are the all-levels case.
// Multi-level releases are plan-based — a ReleasePlan computes every level's
// statistics in one O(V + total groups) sweep (see release_plan.hpp).  The
// pre-plan per-level path (up to three node scans per level) is retained as
// ReleaseAllLegacy: the bench comparator and the parity oracle.
//
// SENSITIVITY CAVEAT (documented honestly): following the paper, Δℓ is
// computed from the dataset's own hierarchy, i.e. it is a *local* rather
// than worst-case-global sensitivity.  The hierarchy itself was produced by
// the DP Exponential Mechanism in Phase 1, which is the paper's argument for
// treating the level structure as safe metadata.  A deployment wanting
// worst-case guarantees can pass an explicit sensitivity bound via
// ReleaseConfig::sensitivity_override.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>

#include "common/rng.hpp"
#include "core/release.hpp"
#include "core/release_plan.hpp"
#include "dp/mechanism.hpp"
#include "dp/privacy_accountant.hpp"
#include "dp/privacy_params.hpp"
#include "hier/hierarchy.hpp"

namespace gdp::common {
class ThreadPool;
}  // namespace gdp::common

namespace gdp::core {

using gdp::graph::BipartiteGraph;
using gdp::hier::GroupHierarchy;
using gdp::hier::Partition;

enum class NoiseKind {
  kGaussian,          // classic calibration for ε<1, analytic above (paper's choice)
  kAnalyticGaussian,  // Balle–Wang calibration at every ε
  kLaplace,           // pure-ε comparator (ablation A3)
  kDiscreteGaussian,  // integer-valued comparator (ablation A3)
  kGeometric,         // integer pure-ε comparator (ablation A3)
};

[[nodiscard]] const char* NoiseKindName(NoiseKind kind) noexcept;

struct ReleaseConfig {
  // Per-level Phase-2 privacy budget εg (the paper's swept parameter).
  double epsilon_g{0.999};
  // Gaussian failure probability δ (the paper leaves it unstated; see
  // DESIGN.md "Substitutions").
  double delta{1e-5};
  NoiseKind noise{NoiseKind::kGaussian};
  // Also release per-group noisy counts at every level.
  bool include_group_counts{true};
  // Post-processing: clamp noisy counts at 0 (counts cannot be negative).
  // Off by default to match the paper's raw-RER measurements.
  bool clamp_nonnegative{false};
  // When set, use this Δ for every level instead of the computed one.
  // A level whose COMPUTED Δℓ is 0 (edgeless graph) is still released
  // exactly: there are no associations to protect, so the override cannot
  // manufacture noise for it.
  std::optional<double> sensitivity_override;
  // Groups per chunk of the per-group vector noise draw.  Part of the
  // output's reproducibility contract: one RNG substream is forked per
  // chunk, pool or not, so changing the grain re-splits the stream and
  // changes the released values — thread count never does.
  std::size_t noise_chunk_grain{8192};
};

// Factory shared by the engine and the baselines: a calibrated scalar
// mechanism for the given noise kind.
[[nodiscard]] std::unique_ptr<gdp::dp::NumericMechanism> MakeMechanism(
    NoiseKind kind, double epsilon, double delta, double sensitivity);

// The accounting event a release charge at (kind, epsilon, delta) claims —
// the mechanism-level fact the ledger's PrivacyAccountant composes from.
// Gaussian kinds carry the noise multiplier σ/Δ their calibration implies
// (scale-free: both the classic and the analytic calibration scale σ
// linearly with Δ, so the multiplier depends only on (ε, δ), never on which
// level's Δℓ is being perturbed).  Laplace/geometric are pure-ε; the δ the
// caller claims stays in the books but an RDP backend knows the mechanism
// itself spends none.  The discrete-Gaussian comparator stays opaque — its
// integer calibration is not σ = m·Δ, so no multiplier is claimed for it.
// `parallel_width` records how many hierarchy levels (disjoint adjacency
// relations) the one charge spans; see docs/ACCOUNTING.md for the
// composition caveat.  Uses the same calibration validity switch as
// MakeMechanism, and the same Epsilon/Delta validation.
[[nodiscard]] gdp::dp::MechanismEvent MechanismEventFor(NoiseKind kind,
                                                        double epsilon,
                                                        double delta,
                                                        int parallel_width = 1);

// Memoized mechanism calibration, keyed by (kind, ε, δ, Δ).  A 9-level
// release with repeated ε touches only a handful of distinct calibrations;
// re-deriving (and heap-allocating) one per level per release is pure waste.
// Mechanisms are immutable after construction, so the cached instances are
// safe to share across the pool's threads; the map itself is mutex-guarded.
class MechanismCache {
 public:
  [[nodiscard]] const gdp::dp::NumericMechanism& Get(NoiseKind kind,
                                                     double epsilon,
                                                     double delta,
                                                     double sensitivity);

  [[nodiscard]] std::size_t size() const;

 private:
  using Key = std::tuple<int, double, double, double>;
  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<gdp::dp::NumericMechanism>> cache_;
};

class GroupDpEngine {
 public:
  explicit GroupDpEngine(ReleaseConfig config);

  // Engine sharing a caller-owned MechanismCache.  A DisclosureSession
  // constructs one engine per release (the ReleaseConfig changes with every
  // BudgetSpec) but keeps ONE cache for its whole lifetime, so re-releasing
  // at an already-seen (kind, ε, δ, Δ) skips calibration entirely.  The
  // cache must outlive the engine.
  GroupDpEngine(ReleaseConfig config, MechanismCache* shared_cache);

  // The engine owns a mechanism cache (and a mutex): non-copyable by design.
  GroupDpEngine(const GroupDpEngine&) = delete;
  GroupDpEngine& operator=(const GroupDpEngine&) = delete;

  // THE draw primitive: release levels [first, last] of `plan` (ascending
  // in the result).  Forks one stream per plan level from `rng` in level
  // order — all num_levels of them, whatever is drawn — then releases each
  // requested level from its own stream via ReleaseLevelFromPlan.  With a
  // pool, requested levels run concurrently and large levels split their
  // vector draw across it; the values are identical without one.  An empty
  // `per_level_epsilon` uses config().epsilon_g at every level; otherwise it
  // holds one ε per plan level (all > 0).  Requires
  // 0 <= first <= last < plan.num_levels() (std::out_of_range otherwise).
  [[nodiscard]] std::vector<LevelRelease> ReleaseLevels(
      const ReleasePlan& plan, int first, int last, gdp::common::Rng& rng,
      gdp::common::ThreadPool* pool = nullptr,
      std::span<const double> per_level_epsilon = {}) const;

  // Every level of the hierarchy with the configured εg per level (the
  // paper's scheme: each level carries its own εg-group-DP guarantee under
  // its own adjacency relation).  Builds a ReleasePlan internally.
  [[nodiscard]] MultiLevelRelease ReleaseAll(const BipartiteGraph& graph,
                                             const GroupHierarchy& hierarchy,
                                             gdp::common::Rng& rng) const;

  // Same, from a caller-owned plan (amortise the sweep across repeated
  // releases of one graph/hierarchy pair) and optional pool.
  [[nodiscard]] MultiLevelRelease ReleaseAll(
      const ReleasePlan& plan, gdp::common::Rng& rng,
      gdp::common::ThreadPool* pool = nullptr) const;

  // Release one level by per-level node scans (no plan), drawing from
  // `level_rng` as ReleaseLevelFromPlan does.  `level_index` is recorded in
  // the artifact.
  [[nodiscard]] LevelRelease ReleaseLevel(const BipartiteGraph& graph,
                                          const Partition& level,
                                          int level_index,
                                          gdp::common::Rng& level_rng) const;

  // The pre-plan path: every level rescans the node set (CountSensitivity,
  // group counts, VectorSensitivity), with the same stream layout as
  // ReleaseLevels — bit-identical to ReleaseAll.  Kept as the benchmark
  // comparator and the parity oracle for the plan path.
  [[nodiscard]] MultiLevelRelease ReleaseAllLegacy(
      const BipartiteGraph& graph, const GroupHierarchy& hierarchy,
      gdp::common::Rng& rng) const;

  // ReleaseAll with the plan build and the draw spread over a fresh pool of
  // `num_threads` (<= 0: hardware concurrency).  Bit-identical to ReleaseAll
  // for every thread count.
  [[nodiscard]] MultiLevelRelease ParallelReleaseAll(
      const BipartiteGraph& graph, const GroupHierarchy& hierarchy,
      gdp::common::Rng& rng, int num_threads = 0) const;

  // Release with an explicit per-level budget (one epsilon per hierarchy
  // level, e.g. from PlanLevelBudgets).  Summing the epsilons gives the
  // sequential-composition cost of protecting every level simultaneously —
  // the stronger guarantee bench_ablation_planned_budgets quantifies.
  // Requires per_level_epsilon.size() == hierarchy.num_levels(), all > 0.
  [[nodiscard]] MultiLevelRelease ReleaseAllWithBudgets(
      const BipartiteGraph& graph, const GroupHierarchy& hierarchy,
      std::span<const double> per_level_epsilon, gdp::common::Rng& rng) const;

  [[nodiscard]] MultiLevelRelease ReleaseAllWithBudgets(
      const ReleasePlan& plan, std::span<const double> per_level_epsilon,
      gdp::common::Rng& rng) const;

  // One level from the plan, drawn from `level_rng` — the level's own stream
  // (ReleaseLevels forks it; a caller measuring one level may pass any
  // stream).  All statistics are cached lookups; mechanisms are memoized.
  // The scalar total is drawn from `level_rng` first; then one substream per
  // noise_chunk_grain-sized chunk of the group vector is forked from it, in
  // chunk order, and each chunk draws from its own substream — across
  // `pool` when non-null, in a loop otherwise, with identical values.
  [[nodiscard]] LevelRelease ReleaseLevelFromPlan(
      const ReleasePlan& plan, int level_index, double epsilon,
      gdp::common::Rng& level_rng,
      gdp::common::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const ReleaseConfig& config() const noexcept { return config_; }

  // Noise σ the engine will use for a level with sensitivity Δ (exposed for
  // expected-error analysis and tests).  Served from the mechanism cache.
  [[nodiscard]] double NoiseStddevFor(double sensitivity) const;

  // Number of distinct calibrations memoized so far (tests assert that the
  // legacy and plan paths share cache entries instead of re-deriving).
  [[nodiscard]] std::size_t MechanismCacheSize() const {
    return cache().size();
  }

 private:
  // The noise half shared by both level paths: `out` arrives with its true
  // statistics and sensitivity filled; draws the total from `level_rng`,
  // then the group vector chunk by chunk (see ReleaseLevelFromPlan), and
  // applies the clamp post-processing.  A null `vector_mechanism` means the
  // level is released without group counts.
  void DrawLevelNoise(LevelRelease& out,
                      const gdp::dp::NumericMechanism& scalar_mechanism,
                      const gdp::dp::NumericMechanism* vector_mechanism,
                      gdp::common::Rng& level_rng,
                      gdp::common::ThreadPool* pool) const;

  // The shared cache when one was given, else the owned one.
  [[nodiscard]] MechanismCache& cache() const noexcept {
    return shared_cache_ != nullptr ? *shared_cache_ : owned_cache_;
  }

  ReleaseConfig config_;
  mutable MechanismCache owned_cache_;
  MechanismCache* shared_cache_{nullptr};
};

}  // namespace gdp::core
