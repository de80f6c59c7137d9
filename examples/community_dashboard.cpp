// Community dashboard: drill-down + consistency + serialization, end to end.
//
// The publisher holds ONE DisclosureSession per dataset; a dashboard server
// then answers, for any member entity, "how active is my community at every
// granularity I may see?" — with GLS consistency applied so the numbers a
// user sees add up across levels, and the artifact round-tripped through its
// serialised form as a real server would.  Re-publishing (a fresh noise
// draw, a tightened ε after a policy change) is one more Release on the same
// session: no Phase-1 re-run, no graph re-scan, and the session ledger keeps
// the cumulative audit trail.
#include <iostream>
#include <sstream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/release_io.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "hier/io.hpp"

int main() {
  using namespace gdp;
  common::Rng rng(2718);

  // Publisher side: a session over a 3k x 5k association graph, 6 levels,
  // consistency enforced on every release.
  graph::DblpLikeParams params;
  params.num_left = 3000;
  params.num_right = 5000;
  params.num_edges = 25000;
  const graph::BipartiteGraph graph = GenerateDblpLike(params, rng);
  std::cout << "publisher: " << graph.Summary() << '\n';

  core::SessionSpec spec;
  spec.budget.epsilon_g = 0.999;
  spec.hierarchy.depth = 6;
  spec.hierarchy.arity = 4;
  spec.exec.enforce_consistency = true;
  auto session = core::DisclosureSession::Open(graph, spec, rng);
  const core::MultiLevelRelease release =
      session.Release(session.spec().budget, rng);

  // Ship artifact + hierarchy as text (what would go over the wire).
  std::stringstream release_wire;
  std::stringstream hierarchy_wire;
  core::WriteRelease(release.StripTruth(), release_wire);
  hier::WriteHierarchy(session.hierarchy(), hierarchy_wire);
  std::cout << "artifact: " << release_wire.str().size() << " bytes, hierarchy: "
            << hierarchy_wire.str().size() << " bytes\n\n";

  // Dashboard side: load the wire artifact and answer drill-downs through
  // the session (its hierarchy index is built lazily on first use; the
  // drill-down is pure post-processing — note the ledger does not grow).
  const core::MultiLevelRelease loaded = core::ReadRelease(release_wire);

  // A tier-2 user owning left entity #42 may see levels 6 down to 2.
  const graph::NodeIndex entity = 42;
  const auto chain = session.Drilldown(loaded, graph::Side::kLeft, entity, 6, 2);

  common::TextTable table({"level", "community_size", "released_count"});
  for (const auto& entry : chain) {
    table.AddRow({"L" + std::to_string(entry.level),
                  std::to_string(entry.group_size),
                  common::FormatDouble(entry.noisy_count, 1)});
  }
  std::cout << "drill-down for left entity #" << entity << " (tier 2):\n";
  table.Print(std::cout);

  std::cout << '\n' << session.ledger().AuditReport();
  std::cout << "\nConsistency guarantees each community's number equals the "
               "sum over its\nsub-communities, so the dashboard never shows "
               "contradictory totals.\n";
  return 0;
}
