// The paper's figure matrix as data: one FigureSpec per evaluation figure
// (Figures 3-6), with the §7.2 reported averages attached. The printed
// figures (`esteem_validate --print figN`), the scorecard, and the generated
// results book all run the same specs through the memoized sweep scheduler,
// so "what the paper measured" lives in exactly one place.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "telemetry/interval_recorder.hpp"
#include "validation/golden.hpp"
#include "validation/scale.hpp"

namespace esteem::validation {

/// Paper-reported §7.2 averages for one figure.
struct PaperAverages {
  double esteem_energy_pct;
  double rpv_energy_pct;
  double esteem_ws;
  double rpv_ws;
  double esteem_rpki_dec;
  double rpv_rpki_dec;
};

struct FigureSpec {
  std::string id;     ///< "fig3" .. "fig6".
  std::string title;  ///< Exact title line of the printed figure.
  bool dual = false;
  double retention_us = 50.0;
  PaperAverages paper{};
  /// Whether the paper re-reports averages for this figure (§7.3 reports no
  /// new numbers for Figures 5-6, only that savings grow).
  bool paper_averages_are_reference_only = false;
  std::string claim;  ///< One-line paper claim, for the results book.
};

/// One pinned per-figure average. The golden file's keys, the scorecard's
/// drift and paper bands, golden_diff_text, figure_text's summary and the
/// RESULTS.md figure table all loop over figure_metrics(), so pinning a new
/// average is one row.
struct FigureMetric {
  const char* key;      ///< Its golden.json key.
  const char* label;    ///< Summary table and drift-band name.
  const char* heading;  ///< RESULTS.md column heading; nullptr = the label.
  sim::Technique technique;  ///< Esteem or RefrintRPV.
  double sim::TechniqueComparison::*value;
  double GoldenFigure::*golden;
  double PaperAverages::*paper;  ///< nullptr when the paper reports none.
  int digits;                    ///< Decimals of the printed measurement.
  double drift_tol;     ///< Allowed distance from the golden value...
  bool drift_relative;  ///< ...as a fraction of it, else absolute.
  double paper_band;    ///< Allowed relative error vs `paper`; 0 = unbanded.

  /// The metric from the ESTEEM or the RPV comparison, per `technique`.
  double read(const sim::TechniqueComparison& esteem,
              const sim::TechniqueComparison& rpv) const {
    return (technique == sim::Technique::Esteem ? esteem : rpv).*value;
  }
};

/// The pinned metrics, in golden-file order.
std::span<const FigureMetric> figure_metrics();

/// Figures 3-6 in paper order.
const std::vector<FigureSpec>& figure_matrix();

/// Looks a figure up by id; nullptr when unknown.
const FigureSpec* find_figure(const std::string& id);

struct FigureResult {
  const FigureSpec* spec = nullptr;
  SystemConfig config;
  ScaleSpec scale;
  sim::SweepResult sweep;
  sim::TechniqueComparison esteem;  ///< Sweep averages.
  sim::TechniqueComparison rpv;

  /// Per-workload series in row order (completed rows only).
  std::vector<std::string> workloads() const;
  std::vector<double> esteem_energy_savings() const;
  std::vector<double> rpv_energy_savings() const;
};

/// The system configuration a figure runs at the given scale (including the
/// historical recompute-interval-after-retention-change order).
SystemConfig figure_config(const FigureSpec& spec, const ScaleSpec& scale);

/// Runs one figure through the memoized sweep scheduler. Summary averages
/// cover completed workloads (std::runtime_error only if every row failed);
/// callers that score the figure must gate on sweep.ok(). `mutate_config`
/// (optional) perturbs the configuration before the run — the validator's
/// deliberate-drift hook.
FigureResult run_figure(const FigureSpec& spec, const ScaleSpec& scale,
                        const std::function<void(SystemConfig&)>& mutate_config = {});

/// The full text `esteem_validate --print figN` prints for this result:
/// scale banner, per-workload figure report, and the paper-vs-measured
/// summary table.
std::string figure_text(const FigureResult& result);

/// Figure 2's two illustrated properties plus the run-average active ratio,
/// checked on the h264ref interval series.
struct Fig2Result {
  bool module_diversity = false;  ///< Modules reconfigured independently.
  bool ratio_changes = false;     ///< Active ratio varies over intervals.
  double avg_active_ratio = 0.0;
  std::size_t intervals = 0;
  /// The `esteem_validate --print fig2` report (scale banner, timeline
  /// table, these properties) rendered from the same run; run_fig2 only.
  std::string text;
};

/// Checks Figure 2's properties on an ESTEEM run's interval series, read by
/// column name (`active_ratio`, `moduleK_active_ways` for K < `modules`).
Fig2Result fig2_check(const telemetry::IntervalRecorder& intervals,
                      std::uint32_t modules, double avg_active_ratio);

/// Runs ESTEEM on h264ref at `scale` (uncached: the series is not part of
/// the memoized outcome), checks it with fig2_check and renders its report.
Fig2Result run_fig2(const ScaleSpec& scale);

}  // namespace esteem::validation
