// Movie-ratings scenario (from the paper's introduction): viewers x movies.
//
// A ratings platform publishes engagement statistics at several granularities
// (whole catalogue, genre clusters, niche communities, single titles).  The
// per-group counts of the multi-level release power dashboards for partners
// with different contracts, and the session's Answer() runs standing query
// workloads (catalogue total, per-group histogram, viewer-activity
// histogram) at any level with automatically calibrated noise — every
// answer charged to the session's cumulative budget ledger, so the platform
// can show an auditor exactly what the quarter's dashboards spent.
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "query/workload.hpp"

int main() {
  using namespace gdp;
  common::Rng rng(99);

  // 20k viewers x 2k movies, heavy-tailed popularity on both sides.
  graph::DblpLikeParams params;
  params.num_left = 20000;
  params.num_right = 2000;
  params.num_edges = 120000;
  params.left_zipf_exponent = 0.4;   // viewer activity
  params.right_zipf_exponent = 0.6;  // movie popularity
  const graph::BipartiteGraph ratings = GenerateDblpLike(params, rng);
  std::cout << "ratings graph: " << ratings.Summary() << "\n\n";

  // One session for the catalogue: the hierarchy and plan serve the
  // published release AND every workload answer below.
  core::SessionSpec spec;
  spec.budget.epsilon_g = 0.8;
  spec.hierarchy.depth = 7;
  spec.hierarchy.arity = 4;
  auto session = core::DisclosureSession::Open(ratings, spec, rng);
  const core::MultiLevelRelease release =
      session.Release(session.spec().budget, rng);
  std::cout << "published release: " << release.num_levels() << " levels\n\n";

  // Standing query workload evaluated at two contract tiers.
  query::Workload workload;
  workload.Add(std::make_unique<query::AssociationCountQuery>())
      .Add(std::make_unique<query::DegreeHistogramQuery>(graph::Side::kLeft, 30))
      .Add(std::make_unique<query::DegreeHistogramQuery>(graph::Side::kRight, 200));

  // The catalogue-total query is the quantity a relative error describes
  // well; for histograms (many near-empty bins) the absolute noise level is
  // the honest metric.
  common::TextTable table({"tier_level", "query", "sensitivity", "noise_sigma",
                           "total_RER", "MAE"});
  for (const int level : {5, 2}) {  // partner tier vs premium tier
    const auto results = session.Answer(
        workload, level, spec.budget, rng,
        "workload at L" + std::to_string(level) + " (3 queries, sequential)");
    for (const auto& r : results) {
      const bool scalar = r.truth.size() == 1;
      table.AddRow({"L" + std::to_string(level), r.query_name,
                    common::FormatDouble(r.sensitivity, 0),
                    common::FormatDouble(r.noise_stddev, 1),
                    scalar ? common::FormatPercent(r.mean_rer, 2) : "-",
                    common::FormatDouble(r.mae, 1)});
    }
  }
  table.Print(std::cout);

  std::cout << '\n' << session.ledger().AuditReport();
  std::cout
      << "\nReading the table: the premium tier (protection level 2) answers "
         "the catalogue\ntotal to within a few percent, the partner tier "
         "(level 5) only to tens of\npercent -- the multi-level contract in "
         "one artifact.  Histogram noise is\ncalibrated to the worst-case "
         "group at each level, so fine-grained breakdowns\nremain expensive: "
         "that is the price of protecting group aggregates, not a bug.\n";
  return 0;
}
