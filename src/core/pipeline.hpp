// The flat disclosure configuration: one field per command-line flag of
// `gdp_tool disclose` / `pack` / `serve`, mapped onto the orthogonal spec
// structs (HierarchySpec / BudgetSpec / ExecSpec in core/session.hpp) by
// ToSessionSpec.  A disclosure is then DisclosureSession::Open(graph,
// config.ToSessionSpec(), rng) followed by Release(session.spec().budget,
// rng): Phase 1 (specialization) + Phase 2 (noise injection), with budget
// accounting on the session's ledger.
#pragma once

#include "core/group_dp_engine.hpp"
#include "core/session.hpp"
#include "dp/accountant.hpp"
#include "hier/specialization.hpp"

namespace gdp::core {

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

  // The spec this flat config describes: .hierarchy, .budget and .exec
  // carry the matching fields; the session caps mirror a single release's
  // ledger (εg total, 2δ per-level headroom).
  [[nodiscard]] SessionSpec ToSessionSpec() const;
};

}  // namespace gdp::core
