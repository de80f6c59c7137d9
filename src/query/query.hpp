// Generic query framework over bipartite association graphs.
//
// A Query maps the statistics of one hierarchy level (LevelStats) to a
// vector of real answers and knows its own group-level sensitivity there, so
// the Workload runner can calibrate any mechanism for any query/level pair.
// Queries never scan the graph's degree sums themselves: a caller holding a
// ReleasePlan (CompiledDisclosure::Answer) passes the plan's per-level
// statistics, and a caller without one scans the level once (ScannedLevel).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "hier/partition.hpp"

namespace gdp::query {

using gdp::graph::BipartiteGraph;
using gdp::graph::EdgeCount;
using gdp::graph::Side;
using gdp::hier::Partition;

// Everything a query reads at one hierarchy level.
struct LevelStats {
  const BipartiteGraph& graph;  // node degrees (degree-histogram truth)
  const Partition& level;       // group ids and sizes
  std::uint64_t num_edges{0};   // |E|
  // Per-group degree sums at `level` (Partition::GroupDegreeSums).
  std::span<const EdgeCount> group_sums;
  // Δℓ: the max group degree sum (0 for an edgeless graph).
  EdgeCount count_sensitivity{0};
  // sqrt(2)·Δℓ, the L2 bound of the per-group count vector; 0 when Δℓ = 0.
  double vector_sensitivity{0.0};
};

// LevelStats from one degree-sum scan of `level` over `graph`, for callers
// without a ReleasePlan.  Owns the sums that stats() points into.
class ScannedLevel {
 public:
  ScannedLevel(const BipartiteGraph& graph, const Partition& level);

  [[nodiscard]] LevelStats stats() const noexcept;

 private:
  const BipartiteGraph* graph_;
  const Partition* level_;
  std::vector<EdgeCount> sums_;
  EdgeCount max_sum_{0};
};

class Query {
 public:
  virtual ~Query() = default;

  [[nodiscard]] virtual std::string Name() const = 0;

  // True answer(s) on the graph the stats describe.
  [[nodiscard]] virtual std::vector<double> Evaluate(
      const LevelStats& stats) const = 0;

  // An upper bound on the L2 change of the answer vector when one group of
  // `stats.level` is added to / removed from the dataset (group adjacency,
  // Definition 3 of the paper).
  [[nodiscard]] virtual double GroupSensitivity(
      const LevelStats& stats) const = 0;

 protected:
  Query() = default;
  Query(const Query&) = default;
  Query& operator=(const Query&) = default;
};

// "What is the number of associations in the dataset?" — the paper's
// evaluated query.  Scalar answer; sensitivity = max group incident-edge
// count at the level.
class AssociationCountQuery final : public Query {
 public:
  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] std::vector<double> Evaluate(
      const LevelStats& stats) const override;
  [[nodiscard]] double GroupSensitivity(const LevelStats& stats) const override;
};

// Per-group incident-association counts at a fixed partition (the multi-level
// disclosure's per-group statistic).  The partition is supplied at
// construction and must outlive the query.  Evaluated at that same
// partition, the answer is the stats' group sums; at any other it costs one
// scan of the query's own partition.  The sensitivity is always the
// evaluated level's sqrt(2)·Δℓ.
class GroupCountQuery final : public Query {
 public:
  explicit GroupCountQuery(const Partition& level) : level_(&level) {}

  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] std::vector<double> Evaluate(
      const LevelStats& stats) const override;
  [[nodiscard]] double GroupSensitivity(const LevelStats& stats) const override;

 private:
  const Partition* level_;
};

// Degree histogram of one side, truncated to [0, max_degree] with an
// overflow bin: answer[d] = #nodes with degree d, answer[max_degree+1] =
// #nodes with degree > max_degree.
class DegreeHistogramQuery final : public Query {
 public:
  DegreeHistogramQuery(Side side, std::size_t max_degree);

  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] std::vector<double> Evaluate(
      const LevelStats& stats) const override;
  // Removing a level group changes same-side bins by ≤ group size (each
  // member leaves its bin) and opposite-side bins by ≤ 2 per incident edge
  // (a neighbour moves between bins); we return the L1 bound
  // max_G (|G| + 2·weight(G)), a valid L2 upper bound.
  [[nodiscard]] double GroupSensitivity(const LevelStats& stats) const override;

 private:
  Side side_;
  std::size_t max_degree_;
};

}  // namespace gdp::query
