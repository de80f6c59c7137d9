// Pharmacy scenario (from the paper's introduction): patients x drugs.
//
// "The total number of 'Psychiatric' drugs bought by buyers in a given
// neighborhood" is a sensitive GROUP statistic: individual DP hides whether
// Bob bought insulin but leaves the neighbourhood aggregate essentially
// exact.  This example builds a patient-drug purchase graph with planted
// neighbourhood structure, releases it under (a) individual edge-DP and
// (b) group-DP at the neighbourhood level, and reports how distinguishable a
// neighbourhood's purchasing volume remains under each.
#include <iostream>

#include "baseline/individual_dp.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/group_dp_engine.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace gdp;
  common::Rng rng(7);

  // 4096 patients in 16 neighbourhoods x 512 drugs; purchases cluster within
  // a neighbourhood's local pharmacy inventory.
  constexpr int kNeighbourhoods = 16;
  const graph::BipartiteGraph purchases =
      graph::GeneratePlantedBlocks(4096, 512, 40000, kNeighbourhoods,
                                   /*in_block_prob=*/0.7, rng);
  std::cout << "purchase graph: " << purchases.Summary() << "\n\n";

  constexpr double kEps = 0.999;
  constexpr double kDelta = 1e-5;

  // Group-DP disclosure with a depth-5 hierarchy (top, regions, ...,
  // individuals); level 3 roughly matches neighbourhood granularity.
  core::SessionSpec spec;
  spec.budget.epsilon_g = kEps;
  spec.budget.delta = kDelta;
  spec.hierarchy.depth = 5;
  spec.hierarchy.arity = 4;
  auto session = core::DisclosureSession::Open(purchases, spec, rng);
  const core::MultiLevelRelease release =
      session.Release(session.spec().budget, rng);

  const int kNeighbourhoodLevel = 3;
  // The plan already holds every level's group weights — no rescan.
  const double neighbourhood_weight = static_cast<double>(
      session.plan().CountSensitivity(kNeighbourhoodLevel));
  std::cout << "largest neighbourhood-level group weight: "
            << neighbourhood_weight << " purchases\n\n";

  // Individual edge-DP comparator.
  const auto edge_release = baseline::ReleaseCountEdgeDp(
      purchases, core::NoiseKind::kLaplace, kEps, kDelta, rng);
  const auto& group_release = release.level(kNeighbourhoodLevel);

  common::TextTable table(
      {"scheme", "noisy_total", "RER", "neighbourhood_disclosure_TV"});
  table.AddRow({"individual edge-DP",
                common::FormatDouble(edge_release.noisy_total, 0),
                common::FormatPercent(edge_release.Rer(), 4),
                common::FormatDouble(
                    baseline::GroupDistinguishability(
                        neighbourhood_weight, edge_release.noise_stddev),
                    4)});
  table.AddRow({"group-DP (neighbourhood level)",
                common::FormatDouble(group_release.noisy_total, 0),
                common::FormatPercent(group_release.TotalRer(), 4),
                common::FormatDouble(
                    baseline::GroupDistinguishability(
                        neighbourhood_weight, group_release.noise_stddev),
                    4)});
  table.Print(std::cout);

  std::cout << "\nIndividual DP answers the audit almost exactly -- and in "
               "doing so reveals the\nneighbourhood's purchasing volume "
               "(TV ~ 1).  The group-DP release protects the\nneighbourhood "
               "aggregate itself.\n";
  return 0;
}
