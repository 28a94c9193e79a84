// The paper's figure matrix as data: one FigureSpec per evaluation figure
// (Figures 3-6), with the §7.2 reported averages attached. The fig3-fig6
// bench binaries, the esteem_validate scorecard, and the generated results
// book all run the same specs through the memoized sweep scheduler, so
// "what the paper measured" lives in exactly one place.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/runner.hpp"
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
  std::string title;  ///< Exact bench-binary title line.
  bool dual = false;
  double retention_us = 50.0;
  PaperAverages paper{};
  /// Whether the paper re-reports averages for this figure (§7.3 reports no
  /// new numbers for Figures 5-6, only that savings grow).
  bool paper_averages_are_reference_only = false;
  std::string claim;  ///< One-line paper claim, for the results book.
};

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

/// The system configuration a figure runs at the given scale (exactly the
/// construction the bench binaries historically used, including the
/// recompute-interval-after-retention-change order).
SystemConfig figure_config(const FigureSpec& spec, const ScaleSpec& scale);

/// Runs one figure through the memoized sweep scheduler. Summary averages
/// cover completed workloads (std::runtime_error only if every row failed);
/// callers that score the figure must gate on sweep.ok(). `mutate_config`
/// (optional) perturbs the configuration before the run — the validator's
/// deliberate-drift hook.
FigureResult run_figure(const FigureSpec& spec, const ScaleSpec& scale,
                        const std::function<void(SystemConfig&)>& mutate_config = {});

/// The full text a fig3-fig6 bench binary prints for this result: scale
/// banner, per-workload figure report, and the paper-vs-measured summary
/// table (byte-identical to the pre-validation-layer bench output).
std::string figure_text(const FigureResult& result);

/// Bench entry point: run `id` at the bench (env) scale, print
/// figure_text, return the process exit code.
int figure_bench_main(const std::string& id);

/// Figure 2's two illustrated properties plus the run-average active ratio,
/// checked on the h264ref timeline.
struct Fig2Result {
  bool module_diversity = false;  ///< Modules reconfigured independently.
  bool ratio_changes = false;     ///< Active ratio varies over intervals.
  double avg_active_ratio = 0.0;
  std::size_t intervals = 0;
};

Fig2Result run_fig2(const ScaleSpec& scale);

}  // namespace esteem::validation
