#include "core/drilldown.hpp"

#include <stdexcept>

namespace gdp::core {

std::vector<DrillDownEntry> DrillDown(const MultiLevelRelease& release,
                                      const gdp::hier::HierarchyIndex& index,
                                      gdp::hier::Side side,
                                      gdp::hier::NodeIndex v, int max_level,
                                      int min_level) {
  const auto& hierarchy = index.hierarchy();
  if (min_level < 0 || max_level > hierarchy.depth() || min_level > max_level) {
    throw std::invalid_argument("DrillDown: bad level range");
  }
  if (release.num_levels() != hierarchy.num_levels()) {
    throw std::invalid_argument("DrillDown: release does not match hierarchy");
  }
  const std::span<const LevelRelease> all(release.levels());
  return DrillDown(all.subspan(static_cast<std::size_t>(min_level),
                               static_cast<std::size_t>(max_level - min_level) +
                                   1),
                   index, side, v);
}

std::vector<DrillDownEntry> DrillDown(std::span<const LevelRelease> levels,
                                      const gdp::hier::HierarchyIndex& index,
                                      gdp::hier::Side side,
                                      gdp::hier::NodeIndex v) {
  const auto& hierarchy = index.hierarchy();
  const std::vector<gdp::hier::GroupId> path = index.GroupPath(side, v);
  std::vector<DrillDownEntry> chain;
  chain.reserve(levels.size());
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const LevelRelease& lr = *it;
    const int lvl = lr.level;
    if (lvl < 0 || lvl > hierarchy.depth()) {
      throw std::invalid_argument("DrillDown: level " + std::to_string(lvl) +
                                  " is not a level of the hierarchy");
    }
    const gdp::hier::GroupId g = path[static_cast<std::size_t>(lvl)];
    if (lr.noisy_group_counts.size() != hierarchy.level(lvl).num_groups()) {
      throw std::invalid_argument(
          "DrillDown: release lacks group counts at level " +
          std::to_string(lvl));
    }
    DrillDownEntry entry;
    entry.level = lvl;
    entry.group = g;
    entry.group_size = hierarchy.level(lvl).group(g).size;
    entry.noisy_count = lr.noisy_group_counts[g];
    entry.true_count = lr.true_group_counts.empty() ? 0.0
                                                    : lr.true_group_counts[g];
    chain.push_back(entry);
  }
  return chain;
}

}  // namespace gdp::core
