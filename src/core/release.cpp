#include "core/release.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/metrics.hpp"

namespace gdp::core {

double LevelRelease::TotalRer() const {
  return RelativeErrorRate(noisy_total, true_total);
}

MultiLevelRelease::MultiLevelRelease(std::vector<LevelRelease> levels)
    : levels_(std::move(levels)) {
  if (levels_.empty()) {
    throw std::invalid_argument("MultiLevelRelease: no levels");
  }
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].level != static_cast<int>(i)) {
      throw std::invalid_argument(
          "MultiLevelRelease: levels must be ascending from 0");
    }
    if (levels_[i].true_group_counts.size() !=
        levels_[i].noisy_group_counts.size()) {
      throw std::invalid_argument(
          "MultiLevelRelease: group-count vectors must pair up");
    }
  }
}

const LevelRelease& MultiLevelRelease::level(int i) const {
  if (i < 0 || i >= num_levels()) {
    throw std::out_of_range("MultiLevelRelease::level: index out of range");
  }
  return levels_[static_cast<std::size_t>(i)];
}

MultiLevelRelease MultiLevelRelease::StripTruth() const {
  std::vector<LevelRelease> stripped = levels_;
  for (LevelRelease& lr : stripped) {
    lr.true_total = 0.0;
    lr.true_group_counts.assign(lr.true_group_counts.size(), 0.0);
  }
  return MultiLevelRelease(std::move(stripped));
}

std::string MultiLevelRelease::Summary() const {
  std::ostringstream os;
  os << "multi-level release, " << num_levels() << " levels\n";
  for (const LevelRelease& lr : levels_) {
    os << "  L" << lr.level << ": sensitivity=" << lr.sensitivity
       << " sigma=" << lr.noise_stddev << " noisy_total=" << lr.noisy_total;
    if (lr.true_total != 0.0) {
      os << " RER=" << lr.TotalRer();
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace gdp::core
