// Paper-fidelity scorecard: turns the measured figure matrix into pass/fail
// checks along two axes.
//
//  1. Paper shape (bench scale only): the qualitative claims the paper makes
//     — ESTEEM beats Refrint RPV on energy saving and refresh reduction,
//     gains grow with core count (fig4 > fig3) and shrink with retention
//     (fig5 > fig3, fig6 > fig4) — plus tolerance bands on the §7.2 reported
//     averages. These are only meaningful near the bench scale: at very
//     small instruction budgets ESTEEM's reconfiguration intervals barely
//     fire and RPV can win (documented in EXPERIMENTS.md), so smoke-scale
//     runs skip this axis rather than encode a falsehood.
//
//  2. Golden drift (every scale): sweep averages, per-workload ESTEEM energy
//     rank order (Spearman), and workload sets compared against the
//     checked-in validation/golden.json entry for this exact scale
//     fingerprint. Tight tolerances — this axis answers "did my change move
//     the results", not "does the paper hold".
#pragma once

#include <string>
#include <vector>

#include "validation/fidelity.hpp"
#include "validation/figures.hpp"
#include "validation/golden.hpp"

namespace esteem::validation {

/// Drift tolerances (axis 2). Defaults are deliberately tight: the simulator
/// is deterministic, so honest no-op changes reproduce the golden values
/// exactly and any slack only exists to absorb cross-platform FP noise.
struct DriftTolerances {
  double energy_pct_abs = 0.75;   ///< percentage points
  double ws_abs = 0.01;
  double rpki_dec_rel = 0.02;
  double mpki_inc_abs = 0.05;
  double active_pct_abs = 1.0;    ///< percentage points
  double min_spearman = 0.95;     ///< vs golden per-workload energy ranks
};

/// Paper-band tolerances (axis 1, bench scale): how close the measured sweep
/// averages must sit to the §7.2 reported numbers. Wide by design — this is
/// a scaled-down trace-driven reproduction, not the paper's simulator. Only
/// energy saving is banded: absolute RPKI decrease scales inversely with the
/// instruction budget (50x fewer instructions -> ~50x more refreshes per
/// kilo-instruction), so the refresh claim is gated as a sign instead, and
/// weighted speedup is excluded entirely (EXPERIMENTS.md note 1).
struct PaperTolerances {
  double energy_pct_rel = 0.45;   ///< ±45% of the paper average
};

/// Score of one figure.
struct FigureScore {
  std::string id;
  std::string title;
  bool ran = false;              ///< False when the sweep had errors.
  std::string error;             ///< First sweep error, when !ran.

  // Axis 1 (empty at non-bench scales or when skipped).
  std::vector<SignClaim> paper_signs;
  std::vector<BandCheck> paper_bands;

  // Axis 2 (empty when the golden file has no entry for this scale).
  bool golden_found = false;
  std::vector<BandCheck> drift_bands;
  double spearman_vs_golden = 1.0;  ///< NaN when not computable.
  bool workloads_match = true;      ///< Golden and measured workload sets.

  // Raw measured averages, for reports.
  PaperAverages measured{};
  double mpki_increase = 0.0;
  double active_ratio_pct = 0.0;

  bool pass(const DriftTolerances& tol) const;
};

/// Whole-matrix scorecard.
struct Scorecard {
  std::string scale_label;
  std::string fingerprint;
  bool paper_checks_enabled = false;  ///< Axis 1 gated on (bench scale).
  std::vector<FigureScore> figures;
  /// Cross-figure paper claims (fig4>fig3 etc.), bench scale only.
  std::vector<SignClaim> cross_claims;
  DriftTolerances drift_tol;
  PaperTolerances paper_tol;

  bool pass() const;
};

/// Scores a measured matrix. `golden` may be nullptr (no drift axis; the
/// scorecard then fails unless it is being built to create a golden).
/// `enable_paper_checks` should be true only near the bench scale.
Scorecard build_scorecard(const std::vector<FigureResult>& results,
                          const GoldenFile* golden, bool enable_paper_checks,
                          const DriftTolerances& drift_tol = {},
                          const PaperTolerances& paper_tol = {});

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
