// End-to-end disclosure pipeline: Phase 1 (specialization) + Phase 2 (noise
// injection), with budget accounting.  RunDisclosure is the one-call
// convenience wrapper — it opens a DisclosureSession, releases once, and
// closes it.  Callers that release more than once from one (graph,
// hierarchy) pair — ε-sweeps, drilldown services, budget re-plans — should
// hold the session instead (see core/session.hpp): the wrapper re-runs
// Phase 1 and rebuilds the ReleasePlan on every call.
#pragma once

#include "common/rng.hpp"
#include "core/group_dp_engine.hpp"
#include "core/release.hpp"
#include "core/session.hpp"
#include "dp/accountant.hpp"
#include "hier/specialization.hpp"

namespace gdp::core {

// The flat one-shot configuration, kept for source compatibility.  New code
// should use the orthogonal spec structs directly (HierarchySpec /
// BudgetSpec / ExecSpec in core/session.hpp); the To*Spec() methods give the
// exact mapping and are what RunDisclosure itself uses.
struct DisclosureConfig {
  // Total per-level privacy target εg.  BudgetPolicy splits it: Phase 1 gets
  // `phase1_fraction · εg` spread over the level transitions, Phase 2 the
  // remainder for noise injection at every level.
  double epsilon_g{0.999};
  double delta{1e-5};
  // Fraction of εg consumed by the Exponential-Mechanism specialization.
  // The paper does not state its split; 0.1 keeps nearly all budget for
  // Phase 2 (ablated by bench_ablation_budget_split).
  double phase1_fraction{0.1};
  // Hierarchy shape (paper: depth 9, arity 4).
  int depth{9};
  int arity{4};
  gdp::hier::SplitQuality split_quality{gdp::hier::SplitQuality::kEdgeBalance};
  int max_cut_candidates{63};
  NoiseKind noise{NoiseKind::kGaussian};
  bool include_group_counts{true};
  bool clamp_nonnegative{false};
  bool validate_hierarchy{true};
  // Post-process the release so parent counts equal their children's sums
  // (GLS tree consistency; requires include_group_counts).  Free in privacy
  // terms — post-processing — and reduces variance at coarse levels.
  bool enforce_consistency{false};
  // Worker threads (see ExecSpec::num_threads): wall time only — the
  // release is identical for every thread count; 0 selects the hardware
  // concurrency.
  int num_threads{1};
  // Groups per chunk of the within-level noise draw.  Part of the
  // reproducibility contract (one RNG substream per chunk): changing it
  // changes the released values; thread count never does.
  std::size_t noise_chunk_grain{8192};
  // Ledger composition policy (`disclose --accounting`): kSequential is the
  // historical Σε bound; kAdvanced / kRdp tighten the cumulative (ε, δ) for
  // multi-release sessions.  Accounting is post-hoc arithmetic over the
  // charges — the released values are bit-identical across policies.
  gdp::dp::AccountingPolicy accounting{gdp::dp::AccountingPolicy::kSequential};
  // Strict per-level charging (`--accounting strict-*`): charge each release
  // as num_levels sequential mechanisms instead of one width-num_levels
  // parallel event.  See SessionSpec::strict_level_charging.
  bool strict_level_charging{false};

  // The orthogonal-spec views of this flat config (the migration path).
  [[nodiscard]] HierarchySpec ToHierarchySpec() const;
  [[nodiscard]] BudgetSpec ToBudgetSpec() const;
  [[nodiscard]] ExecSpec ToExecSpec() const;
  // Session caps mirror the one-shot ledger: εg total, 2δ per-level
  // headroom.
  [[nodiscard]] SessionSpec ToSessionSpec() const;
};

struct DisclosureResult {
  gdp::hier::GroupHierarchy hierarchy;
  MultiLevelRelease release;
  // Budget ledger with one charge per phase (audit trail).
  gdp::dp::BudgetLedger ledger;
};

// Run the full pipeline on a graph: open a session, release once, close.
// Deterministic given `rng` state, and bit-identical to
// DisclosureSession::Open + Release under the same seed and specs.
[[nodiscard]] DisclosureResult RunDisclosure(
    const gdp::graph::BipartiteGraph& graph, const DisclosureConfig& config,
    gdp::common::Rng& rng);

}  // namespace gdp::core
