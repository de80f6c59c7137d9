// Shared helpers for the benchmark harnesses.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "graph/generators.hpp"

namespace gdp::bench {

// Peak resident set size (VmHWM) of this process in bytes, from
// /proc/self/status; 0 when the field is unavailable (non-Linux).  The
// high-water mark is process-monotone — call ResetPeakRss() first to scope
// it to a phase.
inline std::uint64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      std::uint64_t kb = 0;
      ss >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

// Reset the kernel's RSS high-water mark to the CURRENT RSS (writes "5" to
// /proc/self/clear_refs).  Best-effort: returns false when the kernel
// refuses (then PeakRssBytes() still reports the process-lifetime peak,
// which over-reports but never under-reports a phase).
inline bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) {
    return false;
  }
  clear_refs << "5";
  return static_cast<bool>(clear_refs.flush());
}

// Benchmarks default to 1/10 of the paper's DBLP scale so the whole suite
// runs in minutes on a laptop.  Environment overrides:
//   GDP_FULL_SCALE=1   run at the paper's full DBLP scale
//   GDP_SCALE=0.02     run at an explicit fraction
inline double ScaleFraction(double default_fraction = 0.1) {
  if (const char* full = std::getenv("GDP_FULL_SCALE");
      full != nullptr && std::string(full) == "1") {
    return 1.0;
  }
  if (const char* scale = std::getenv("GDP_SCALE"); scale != nullptr) {
    const double f = std::atof(scale);
    if (f > 0.0 && f <= 1.0) {
      return f;
    }
    std::cerr << "ignoring invalid GDP_SCALE='" << scale << "'\n";
  }
  return default_fraction;
}

inline gdp::graph::BipartiteGraph MakeDblpLikeGraph(double fraction,
                                                    std::uint64_t seed) {
  gdp::common::Rng rng(seed);
  const auto params = gdp::graph::DblpScaledParams(fraction);
  gdp::common::Stopwatch sw;
  auto graph = gdp::graph::GenerateDblpLike(params, rng);
  // stderr: the wall time differs run to run, and stdout must not, so that
  // two runs at one seed print identical results.
  std::cerr << "# generated " << graph.Summary() << " in "
            << gdp::common::FormatDouble(sw.ElapsedSeconds(), 2) << "s (scale "
            << fraction << " of DBLP)\n";
  return graph;
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n" << paper_ref << "\n"
            << "==============================================================\n";
}

}  // namespace gdp::bench
