// Paper-style textual reports for sweep results.
#pragma once

#include <string>

#include "sim/runner.hpp"

namespace esteem::sim {

/// Per-workload figure-style report (Figures 3-6): energy saving, weighted
/// speedup and RPKI decrease for every technique, plus MPKI increase and
/// active ratio for ESTEEM. Ends with the average row.
std::string figure_report(const SweepResult& result, const std::string& title);

/// Writes the sweep to CSV (one row per workload x technique).
void write_csv(const SweepResult& result, const std::string& path);

}  // namespace esteem::sim
