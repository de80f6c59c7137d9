// Release artifacts: what the data publisher actually discloses.
//
// A MultiLevelRelease holds, for every hierarchy level, the noisy
// association-count total and (optionally) the noisy per-group counts.  For
// evaluation the artifact also carries the true values; a production
// deployment would strip them (see StripTruth).
#pragma once

#include <string>
#include <vector>

namespace gdp::core {

struct LevelRelease {
  int level{0};
  // Group-level sensitivity Δℓ used to calibrate this level's noise.
  double sensitivity{0.0};
  // Standard deviation of the injected noise for the scalar total.
  double noise_stddev{0.0};
  // Standard deviation of the noise on each per-group count (calibrated to
  // the sqrt(2)-vector sensitivity, hence larger than noise_stddev).  Zero
  // when no group counts were released or the level was exact.
  double group_noise_stddev{0.0};
  // Scalar association count.
  double true_total{0.0};   // evaluation-only
  double noisy_total{0.0};
  // Per-group incident-association counts at this level (empty when the
  // release was configured without group counts).
  std::vector<double> true_group_counts;  // evaluation-only
  std::vector<double> noisy_group_counts;

  // RER of the scalar total (the paper's Figure-1 quantity).
  [[nodiscard]] double TotalRer() const;
};

class MultiLevelRelease {
 public:
  // levels[i] must describe level i (ascending, 0 = individuals).
  explicit MultiLevelRelease(std::vector<LevelRelease> levels);

  [[nodiscard]] int depth() const noexcept {
    return static_cast<int>(levels_.size()) - 1;
  }
  [[nodiscard]] int num_levels() const noexcept {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] const LevelRelease& level(int i) const;
  [[nodiscard]] const std::vector<LevelRelease>& levels() const noexcept {
    return levels_;
  }

  // Copy with all true_* fields zeroed: the disclosable artifact.
  [[nodiscard]] MultiLevelRelease StripTruth() const;

  // One line per level: level, sensitivity, noise stddev, noisy total, RER.
  [[nodiscard]] std::string Summary() const;

 private:
  std::vector<LevelRelease> levels_;
};

}  // namespace gdp::core
