// Drill-down views over a multi-level release.
//
// A consumer authorised at level ℓ typically wants "the counts for MY
// group": the chain of enclosing groups of a designated node from the
// coarsest level down to the finest level their tier permits.  DrillDown
// extracts that chain from the released per-group counts — pure
// post-processing of the artifact, no additional privacy cost.
#pragma once

#include <span>
#include <vector>

#include "core/release.hpp"
#include "hier/navigation.hpp"

namespace gdp::core {

struct DrillDownEntry {
  int level{0};
  gdp::hier::GroupId group{0};
  gdp::graph::NodeIndex group_size{0};
  double noisy_count{0.0};
  double true_count{0.0};  // evaluation-only; zero in stripped releases
};

// The enclosing-group chain of node (side, v) with its released counts,
// from level `max_level` down to level `min_level` (inclusive).
// Requires the release to carry group counts at each requested level, and
// 0 <= min_level <= max_level <= depth.
[[nodiscard]] std::vector<DrillDownEntry> DrillDown(
    const MultiLevelRelease& release, const gdp::hier::HierarchyIndex& index,
    gdp::hier::Side side, gdp::hier::NodeIndex v, int max_level, int min_level);

// Same walk over an ascending run of level releases (each naming its level,
// as a ranged draw returns them), from the last entry down to the first.
// Requires every entry to carry group counts at a level of the hierarchy.
[[nodiscard]] std::vector<DrillDownEntry> DrillDown(
    std::span<const LevelRelease> levels,
    const gdp::hier::HierarchyIndex& index, gdp::hier::Side side,
    gdp::hier::NodeIndex v);

}  // namespace gdp::core
