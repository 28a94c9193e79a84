// Paper-fidelity scorecard: turns the measured figure matrix into pass/fail
// checks along two axes.
//
//  1. Paper shape (bench and paper scales): the qualitative claims the
//     paper makes — ESTEEM beats Refrint RPV on energy saving and refresh
//     reduction, gains grow with core count (fig4 > fig3) and shrink with
//     retention (fig5 > fig3, fig6 > fig4) — plus tolerance bands on the
//     §7.2 reported averages. These are only meaningful from the bench scale up: at very
//     small instruction budgets ESTEEM's reconfiguration intervals barely
//     fire and RPV can win (documented in EXPERIMENTS.md), so smoke-scale
//     runs skip this axis rather than encode a falsehood.
//
//  2. Golden drift (every scale): sweep averages, per-workload ESTEEM energy
//     rank order (Spearman), and workload sets compared against the
//     checked-in validation/golden.json entry for this exact scale
//     fingerprint. Tight tolerances — this axis answers "did my change move
//     the results", not "does the paper hold".
//
// Each banded average and its tolerances are one row of figure_metrics().
#pragma once

#include <string>
#include <vector>

#include "validation/fidelity.hpp"
#include "validation/figures.hpp"
#include "validation/golden.hpp"

namespace esteem::validation {

/// Score of one figure.
struct FigureScore {
  std::string id;
  std::string title;
  bool ran = false;              ///< False when the sweep had errors.
  std::string error;             ///< First sweep error, when !ran.

  // Axis 1 (empty when paper checks are skipped).
  std::vector<SignClaim> paper_signs;
  std::vector<BandCheck> paper_bands;

  // Axis 2 (empty when the golden file has no entry for this scale).
  bool golden_found = false;
  std::vector<BandCheck> drift_bands;
  /// NaN when not computable, -1 when the workload sets differ.
  double spearman_vs_golden = 1.0;
  bool workloads_match = true;      ///< Golden and measured workload sets.

  bool pass() const;
};

/// Whole-matrix scorecard.
struct Scorecard {
  std::string scale_label;
  std::string fingerprint;
  bool paper_checks_enabled = false;  ///< Axis 1 on (bench or paper scale).
  std::vector<FigureScore> figures;
  /// Cross-figure paper claims (fig4>fig3 etc.), when axis 1 is on.
  std::vector<SignClaim> cross_claims;

  bool pass() const;
};

/// Scores a measured matrix. `golden` may be nullptr (no drift axis; the
/// scorecard then fails unless it is being built to create a golden). The
/// paper-shape axis runs when the results' scale label is "bench" or
/// "paper".
Scorecard build_scorecard(const std::vector<FigureResult>& results,
                          const GoldenFile* golden);

/// Converts a measured matrix into a golden entry for its scale.
GoldenScale to_golden(const std::vector<FigureResult>& results);

/// Human-readable diff between an existing golden entry and a freshly
/// measured replacement — printed by --update-golden so the change that is
/// about to be committed is visible. Empty string when identical.
std::string golden_diff_text(const GoldenScale& before, const GoldenScale& after);

/// Plain-text scorecard (terminal) and markdown scorecard (RESULTS.md).
std::string scorecard_text(const Scorecard& card);
std::string scorecard_markdown(const Scorecard& card);

}  // namespace esteem::validation
