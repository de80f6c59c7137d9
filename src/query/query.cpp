#include "query/query.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/group_sensitivity.hpp"

namespace gdp::query {

ScannedLevel::ScannedLevel(const BipartiteGraph& graph, const Partition& level)
    : graph_(&graph), level_(&level), sums_(level.GroupDegreeSums(graph)) {
  for (const EdgeCount s : sums_) {
    max_sum_ = std::max(max_sum_, s);
  }
}

LevelStats ScannedLevel::stats() const noexcept {
  return LevelStats{
      *graph_,
      *level_,
      graph_->num_edges(),
      sums_,
      max_sum_,
      max_sum_ == 0 ? 0.0
                    : gdp::core::VectorSensitivityFromScalar(max_sum_).value()};
}

std::string AssociationCountQuery::Name() const { return "association_count"; }

std::vector<double> AssociationCountQuery::Evaluate(
    const LevelStats& stats) const {
  return {static_cast<double>(stats.num_edges)};
}

double AssociationCountQuery::GroupSensitivity(const LevelStats& stats) const {
  return static_cast<double>(stats.count_sensitivity);
}

std::string GroupCountQuery::Name() const { return "group_counts"; }

std::vector<double> GroupCountQuery::Evaluate(const LevelStats& stats) const {
  std::vector<EdgeCount> scanned;
  std::span<const EdgeCount> sums = stats.group_sums;
  if (&stats.level != level_) {
    scanned = level_->GroupDegreeSums(stats.graph);
    sums = scanned;
  }
  return std::vector<double>(sums.begin(), sums.end());
}

double GroupCountQuery::GroupSensitivity(const LevelStats& stats) const {
  // One group's change moves its own entry by ≤ Δ and opposite-side entries
  // by ≤ Δ total; sqrt(2)·Δ bounds the L2 (see core/group_sensitivity.hpp).
  return stats.vector_sensitivity;
}

DegreeHistogramQuery::DegreeHistogramQuery(Side side, std::size_t max_degree)
    : side_(side), max_degree_(max_degree) {
  if (max_degree == 0) {
    throw std::invalid_argument("DegreeHistogramQuery: max_degree must be >= 1");
  }
}

std::string DegreeHistogramQuery::Name() const {
  return std::string("degree_histogram_") + gdp::graph::SideName(side_);
}

std::vector<double> DegreeHistogramQuery::Evaluate(
    const LevelStats& stats) const {
  // Degrees straight off the CSR offsets: one sequential pass.
  const std::span<const EdgeCount> offsets = stats.graph.offsets(side_);
  std::vector<double> bins(max_degree_ + 2, 0.0);
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    const auto d = static_cast<std::size_t>(offsets[v + 1] - offsets[v]);
    ++bins[std::min(d, max_degree_ + 1)];
  }
  return bins;
}

double DegreeHistogramQuery::GroupSensitivity(const LevelStats& stats) const {
  const std::span<const gdp::hier::GroupInfo> groups = stats.level.groups();
  double worst = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const double bound = static_cast<double>(groups[g].size) +
                         2.0 * static_cast<double>(stats.group_sums[g]);
    worst = std::max(worst, bound);
  }
  return worst;
}

}  // namespace gdp::query
