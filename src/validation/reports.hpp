// The paper's tables and figures as printable reports, one per id:
// `esteem_validate --print ID` runs a report at the scale the tool names and
// prints its text. Figures 3-6 are the figure matrix (figures.hpp) rendered
// by figure_text, so a printed figure, the fidelity gate and the results book
// run the same sweeps through the same memo cache.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "validation/scale.hpp"

namespace esteem::validation {

struct ReportOutput {
  std::string text;
  bool ok = true;  ///< False when a sweep row failed (esteem_validate exits 3).
};

struct Report {
  std::string id;       ///< "table1", "fig3", ...
  std::string summary;  ///< One line for `esteem_validate --list`.
  std::function<ReportOutput(const ScaleSpec&)> run;
};

/// Every report in paper order: table1 table2 eq1 fig2 fig3 fig4 fig5 fig6
/// table3 ablation motivation faults.
const std::vector<Report>& reports();

/// Looks a report up by id; nullptr when unknown.
const Report* find_report(const std::string& id);

}  // namespace esteem::validation
