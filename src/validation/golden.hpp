// Golden baseline file: the checked-in reference the fidelity scorecard
// drifts against. validation/golden.json stores, per simulation scale
// (keyed by scale_fingerprint), the sweep averages and per-workload energy
// series of every figure, so `esteem_validate --check` can fail CI when a
// code change moves the results — without re-deriving what "the results"
// were supposed to be.
//
// The writer here fixes the key order (a figure's averages are keyed by
// figure_metrics()); strings and %.17g doubles go through common/json,
// which also parses the file, so a round trip is bit-exact.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace esteem::validation {

/// Golden record of one figure at one scale.
struct GoldenFigure {
  std::string id;  ///< "fig3" .. "fig6".
  // Sweep averages (paper §6.4 metrics), one per figure_metrics() row.
  double esteem_energy_pct = 0.0;
  double rpv_energy_pct = 0.0;
  double esteem_ws = 0.0;
  double rpv_ws = 0.0;
  double esteem_rpki_dec = 0.0;
  double rpv_rpki_dec = 0.0;
  double esteem_mpki_inc = 0.0;
  double esteem_active_pct = 0.0;
  // Per-workload ESTEEM energy-saving series (row order), for rank drift.
  std::vector<std::string> workloads;
  std::vector<double> esteem_energy_savings;
  std::vector<double> rpv_energy_savings;
};

/// All figures recorded at one scale.
struct GoldenScale {
  std::string fingerprint;  ///< scale_fingerprint() of the recording run.
  std::string label;        ///< "smoke" / "bench" — informational.
  std::vector<GoldenFigure> figures;

  const GoldenFigure* find_figure(const std::string& id) const;
};

inline constexpr int kGoldenVersion = 1;

/// The provenance line record() stamps. A constant, not the last scale
/// recorded: each scale entry carries its own fingerprint, so re-recording
/// an unchanged entry leaves the file byte-identical.
inline constexpr const char* kGoldenGenerator = "esteem_validate --update-golden";

struct GoldenFile {
  int version = kGoldenVersion;
  /// Free-form provenance line; informational only.
  std::string generator;
  std::vector<GoldenScale> scales;

  const GoldenScale* find_scale(const std::string& fingerprint) const;
  /// Inserts the entry for `scale.fingerprint`, or merges it into the
  /// existing one figure by figure: figures in `scale` replace their old
  /// records, and figures it does not carry keep theirs.
  void upsert_scale(GoldenScale scale);
  /// `esteem_validate --update-golden`'s write: upsert_scale(scale), and the
  /// generator line set to kGoldenGenerator.
  void record(GoldenScale scale);
};

/// Serializes with stable key order and %.17g doubles (round-trip exact).
std::string golden_to_json(const GoldenFile& file);

/// Parses golden JSON. Throws std::runtime_error on malformed input or on a
/// version mismatch (a different golden schema must not silently "pass").
GoldenFile golden_from_json(const std::string& json);

/// File I/O wrappers; load throws on unreadable files, save on write errors.
GoldenFile load_golden(const std::string& path);
void save_golden(const std::string& path, const GoldenFile& file);

}  // namespace esteem::validation
