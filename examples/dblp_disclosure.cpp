// DBLP scenario: the paper's own evaluation workload, end to end.
//
// A publication database wants to publish author-paper association counts at
// several organisational granularities (all of DBLP, research communities,
// sub-communities, ..., individuals).  Coarse aggregates are business-
// sensitive; individual associations are personal data.  The multi-level
// group-DP release serves both: every consumer gets the finest view their
// privilege tier allows, each view carrying its own eps_g-group-DP guarantee.
//
// Usage:
//   dblp_disclosure [edge_list.tsv]
// With no argument a 1/100-scale synthetic DBLP graph is generated.  An
// edge-list file (see graph/io.hpp for the format) reproduces the pipeline on
// real data.
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"

int main(int argc, char** argv) {
  using namespace gdp;
  common::Rng rng(2026);

  graph::BipartiteGraph graph =
      argc > 1 ? graph::ReadEdgeListFile(argv[1])
               : GenerateDblpLike(graph::DblpScaledParams(0.01), rng);
  std::cout << graph.Summary() << '\n';
  std::cout << "left-degree Gini: "
            << common::FormatDouble(graph::DegreeGini(graph, graph::Side::kLeft), 3)
            << ", max author degree: "
            << graph.MaxDegree(graph::Side::kLeft) << "\n\n";

  // One session per dataset: Phase 1 and the release plan are built here
  // once; re-publishing (new noise, new ε, drilldowns) reuses both.
  core::SessionSpec spec;
  spec.budget.epsilon_g = 0.999;
  spec.hierarchy.depth = 9;
  spec.hierarchy.arity = 4;
  spec.exec.include_group_counts = true;
  auto session = core::DisclosureSession::Open(graph, spec, rng);
  const core::MultiLevelRelease release =
      session.Release(session.spec().budget, rng);

  // The disclosed artifact per level: noisy total + per-group noisy counts.
  common::TextTable table({"level", "groups", "sensitivity", "noise_sigma",
                           "noisy_total", "RER_total"});
  for (int lvl = 0; lvl < release.num_levels(); ++lvl) {
    const auto& lr = release.level(lvl);
    table.AddRow({"L" + std::to_string(lvl),
                  std::to_string(session.hierarchy().level(lvl).num_groups()),
                  common::FormatDouble(lr.sensitivity, 0),
                  common::FormatDouble(lr.noise_stddev, 1),
                  common::FormatDouble(lr.noisy_total, 0),
                  common::FormatPercent(lr.TotalRer(), 2)});
  }
  table.Print(std::cout);

  // What actually leaves the publisher: truth stripped.
  const core::MultiLevelRelease published = release.StripTruth();
  std::cout << "\npublished artifact (truth stripped):\n"
            << published.Summary() << '\n';
  return 0;
}
