#include "core/pipeline.hpp"

namespace gdp::core {

SessionSpec DisclosureConfig::ToSessionSpec() const {
  SessionSpec spec;
  spec.hierarchy.depth = depth;
  spec.hierarchy.arity = arity;
  spec.hierarchy.split_quality = split_quality;
  spec.hierarchy.max_cut_candidates = max_cut_candidates;
  spec.hierarchy.validate_hierarchy = validate_hierarchy;
  spec.budget.epsilon_g = epsilon_g;
  spec.budget.delta = delta;
  spec.budget.phase1_fraction = phase1_fraction;
  spec.budget.noise = noise;
  spec.exec.num_threads = num_threads;
  spec.exec.noise_chunk_grain = noise_chunk_grain;
  spec.exec.include_group_counts = include_group_counts;
  spec.exec.enforce_consistency = enforce_consistency;
  spec.exec.clamp_nonnegative = clamp_nonnegative;
  spec.epsilon_cap = epsilon_g;
  spec.delta_cap = delta * 2.0;  // per-level δ headroom
  spec.accounting = accounting;
  spec.strict_level_charging = strict_level_charging;
  return spec;
}

}  // namespace gdp::core
