// Workload runner: evaluates a set of queries at a hierarchy level under a
// configured mechanism and reports per-query utility metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/group_dp_engine.hpp"
#include "dp/accountant.hpp"
#include "query/query.hpp"

namespace gdp::query {

struct QueryRunResult {
  std::string query_name;
  double sensitivity{0.0};
  double noise_stddev{0.0};
  std::vector<double> truth;
  std::vector<double> noisy;
  double mean_rer{0.0};
  double mae{0.0};
  double rmse{0.0};
};

class Workload {
 public:
  Workload() = default;

  // Takes ownership of the query.
  Workload& Add(std::unique_ptr<Query> query);

  [[nodiscard]] std::size_t size() const noexcept { return queries_.size(); }

  // Run every query at the level `stats` describes, perturbing each with a
  // mechanism calibrated to (epsilon, delta) and the query's own group
  // sensitivity at that level.  A query whose sensitivity at the level is 0
  // is released exactly.  No graph scan: everything comes from `stats`.
  [[nodiscard]] std::vector<QueryRunResult> Run(
      const LevelStats& stats, gdp::core::NoiseKind noise, double epsilon,
      double delta, gdp::common::Rng& rng) const;

  // The same after one degree-sum scan of `level` (ScannedLevel).
  [[nodiscard]] std::vector<QueryRunResult> Run(
      const BipartiteGraph& graph, const Partition& level,
      gdp::core::NoiseKind noise, double epsilon, double delta,
      gdp::common::Rng& rng) const;

  // Privacy cost of one Run call at (epsilon, delta): the queries all read
  // the same graph, so k queries compose sequentially into (k·ε, k·δ).
  // Used by DisclosureSession::Answer to charge its ledger.
  [[nodiscard]] gdp::dp::BudgetCharge RunCost(double epsilon,
                                              double delta) const;

 private:
  std::vector<std::unique_ptr<Query>> queries_;
};

}  // namespace gdp::query
