#include "core/pipeline.hpp"

#include <utility>

namespace gdp::core {

HierarchySpec DisclosureConfig::ToHierarchySpec() const {
  HierarchySpec spec;
  spec.depth = depth;
  spec.arity = arity;
  spec.split_quality = split_quality;
  spec.max_cut_candidates = max_cut_candidates;
  spec.validate_hierarchy = validate_hierarchy;
  return spec;
}

BudgetSpec DisclosureConfig::ToBudgetSpec() const {
  BudgetSpec spec;
  spec.epsilon_g = epsilon_g;
  spec.delta = delta;
  spec.phase1_fraction = phase1_fraction;
  spec.noise = noise;
  return spec;
}

ExecSpec DisclosureConfig::ToExecSpec() const {
  ExecSpec spec;
  spec.num_threads = num_threads;
  spec.noise_chunk_grain = noise_chunk_grain;
  spec.include_group_counts = include_group_counts;
  spec.enforce_consistency = enforce_consistency;
  spec.clamp_nonnegative = clamp_nonnegative;
  return spec;
}

SessionSpec DisclosureConfig::ToSessionSpec() const {
  SessionSpec spec;
  spec.hierarchy = ToHierarchySpec();
  spec.budget = ToBudgetSpec();
  spec.exec = ToExecSpec();
  spec.epsilon_cap = epsilon_g;
  spec.delta_cap = delta * 2.0;  // per-level δ headroom
  spec.accounting = accounting;
  spec.strict_level_charging = strict_level_charging;
  return spec;
}

DisclosureResult RunDisclosure(const gdp::graph::BipartiteGraph& graph,
                               const DisclosureConfig& config,
                               gdp::common::Rng& rng) {
  // Open-release-close: Phase 1 + plan once, one release, ledger out.
  // Open validates the cheap knobs (fraction, ε, consistency flags) before
  // Phase 1 touches the graph.
  // Phase 2: one (ε, δ) mechanism per level; within a level the scalar and
  // the group vector are charged sequentially by the engine's construction,
  // but across levels each level protects a *different* adjacency relation —
  // the per-level guarantee is εg-group-DP at that level's granularity
  // (matching the paper's statement), so the ledger records the max.
  DisclosureSession session =
      DisclosureSession::Open(graph, config.ToSessionSpec(), rng);
  MultiLevelRelease release =
      session.Release(config.ToBudgetSpec(), rng,
                      "phase2: per-level noise (max over levels)");
  gdp::dp::BudgetLedger ledger = session.ledger();
  return DisclosureResult{std::move(session).TakeHierarchy(),
                          std::move(release), std::move(ledger)};
}

}  // namespace gdp::core
