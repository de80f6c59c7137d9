// Reproduction of Figure 1 ("Impact of eps_g"), the paper's sole evaluation
// artifact.
//
// Setup mirrored from Section III: a DBLP-scale bipartite association graph
// is specialized for nine rounds (each group splits 4-ways per level) to form
// group levels 9 (entire dataset) down to 1, with level 0 the individual
// level.  For each privacy budget eps_g in {0.1 ... 0.9, 0.999} and each
// information level I9,i (i in [0,7]), the association-count query is
// perturbed by a Gaussian Mechanism calibrated to the group-level sensitivity
// of level i, and the relative error rate RER = |P - T| / T is averaged over
// trials.
//
// Expected shape (paper anchor points at eps_g = 0.999): I9,1 ~ 0.2%,
// I9,2 ~ 0.33%, I9,5 ~ 4%, I9,6 ~ 11%, I9,7 ~ 35%; all series grow as eps_g
// shrinks, I9,6/I9,7 dramatically so.  Our absolute floor at fine levels
// depends on the synthetic max degree (see EXPERIMENTS.md).
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/group_dp_engine.hpp"
#include "core/pipeline.hpp"

namespace {

constexpr int kDepth = 9;
constexpr int kArity = 4;
constexpr int kMaxShownLevel = 7;  // the paper plots I9,0..I9,7
constexpr int kTrials = 25;

}  // namespace

int main() {
  using namespace gdp;
  bench::PrintHeader("Figure 1: impact of eps_g on relative error rate",
                     "# per level I9,i: RER of the association-count query, "
                     "mean over " +
                         std::to_string(kTrials) + " trials");
  const double fraction = bench::ScaleFraction();
  const graph::BipartiteGraph g = bench::MakeDblpLikeGraph(fraction, 2026);

  const std::vector<double> eps_values{0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9, 0.999};

  std::vector<std::string> header{"eps_g"};
  for (int lvl = 0; lvl <= kMaxShownLevel; ++lvl) {
    header.push_back("I9," + std::to_string(lvl));
  }
  common::TextTable table(header);

  for (const double eps : eps_values) {
    // The full pipeline per eps: Phase 1 consumes a fraction of eps_g to
    // build the hierarchy, Phase 2 perturbs each level with the remainder.
    core::DisclosureConfig cfg;
    cfg.epsilon_g = eps;
    cfg.depth = kDepth;
    cfg.arity = kArity;
    cfg.include_group_counts = false;
    cfg.validate_hierarchy = false;  // O(V*depth) check skipped at bench scale
    common::Rng rng(1000 + static_cast<std::uint64_t>(eps * 1e4));
    core::DisclosureSession session =
        core::DisclosureSession::Open(g, cfg.ToSessionSpec(), rng);
    // The full disclosure: the trials below draw from the rng state after it.
    (void)session.Release(session.spec().budget, rng);

    // Average RER per level over repeated Phase-2 noise draws.
    core::ReleaseConfig rel;
    rel.epsilon_g = eps * (1.0 - cfg.phase1_fraction);
    rel.include_group_counts = false;
    const core::GroupDpEngine engine(rel);
    std::vector<std::string> row{common::FormatDouble(eps, 3)};
    for (int lvl = 0; lvl <= kMaxShownLevel; ++lvl) {
      double total_rer = 0.0;
      for (int t = 0; t < kTrials; ++t) {
        total_rer += engine
                         .ReleaseLevelFromPlan(session.plan(), lvl,
                                               rel.epsilon_g, rng)
                         .TotalRer();
      }
      row.push_back(common::FormatPercent(total_rer / kTrials, 3));
    }
    table.AddRow(std::move(row));
    std::cout << "# eps_g=" << eps << " done\n" << std::flush;
  }

  std::cout << '\n';
  table.Print(std::cout);
  std::cout << "\n# TSV for plotting:\n";
  table.PrintTsv(std::cout);
  return 0;
}
