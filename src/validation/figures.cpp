#include "validation/figures.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "trace/workloads.hpp"

namespace esteem::validation {

const std::vector<FigureSpec>& figure_matrix() {
  static const std::vector<FigureSpec> kFigures = [] {
    std::vector<FigureSpec> f;
    // Paper §7.2: ESTEEM 25.82% / RPV 15.93% energy saving; WS 1.09 / 1.06;
    // RPKI decrease 467 / 161.
    f.push_back({"fig3", "Figure 3: single-core, 50us retention", false, 50.0,
                 {25.82, 15.93, 1.09, 1.06, 467.0, 161.0}, false,
                 "Single-core at 50 us retention: ESTEEM saves more energy "
                 "than Refrint RPV (25.82% vs 15.93% in the paper) while "
                 "cutting ~3x more refreshes."});
    // Paper §7.2: ESTEEM 32.63% / RPV 14.3%; WS 1.22 / 1.09; RPKI 511 / 134.
    f.push_back({"fig4", "Figure 4: dual-core, 50us retention", true, 50.0,
                 {32.63, 14.3, 1.22, 1.09, 511.0, 134.0}, false,
                 "Dual-core at 50 us retention: ESTEEM's advantage over RPV "
                 "widens with core count (32.63% vs 14.3% in the paper)."});
    // §7.3 reports no new averages, only that both techniques improve
    // further; the 50 us averages are shown for reference.
    f.push_back({"fig5",
                 "Figure 5: single-core, 40us retention (expect larger gains than Fig 3)",
                 false, 40.0, {25.82, 15.93, 1.09, 1.06, 467.0, 161.0}, true,
                 "Single-core at the reduced 40 us retention (§7.3): refresh "
                 "pressure grows, so both techniques save more than in "
                 "Figure 3."});
    f.push_back({"fig6",
                 "Figure 6: dual-core, 40us retention (expect larger gains than Fig 4)",
                 true, 40.0, {32.63, 14.3, 1.22, 1.09, 511.0, 134.0}, true,
                 "Dual-core at 40 us retention (§7.3): the heaviest refresh "
                 "load in the study; savings exceed Figure 4."});
    return f;
  }();
  return kFigures;
}

std::span<const FigureMetric> figure_metrics() {
  using sim::Technique;
  using TC = sim::TechniqueComparison;
  using G = GoldenFigure;
  using P = PaperAverages;
  // Drift tolerances are tight: the simulator is deterministic, so the slack
  // only absorbs cross-platform FP noise. Only energy saving is banded
  // against the paper, at ±45%: absolute RPKI decrease scales inversely with
  // the instruction budget, and weighted speedup carries no signal here
  // (EXPERIMENTS.md note 1).
  static constexpr FigureMetric kMetrics[] = {
      {"esteem_energy_pct", "ESTEEM energy saving %", nullptr, Technique::Esteem,
       &TC::energy_saving_pct, &G::esteem_energy_pct, &P::esteem_energy_pct,
       2, 0.75, false, 0.45},
      {"rpv_energy_pct", "RPV energy saving %", nullptr, Technique::RefrintRPV,
       &TC::energy_saving_pct, &G::rpv_energy_pct, &P::rpv_energy_pct,
       2, 0.75, false, 0.45},
      {"esteem_ws", "ESTEEM weighted speedup", "ESTEEM WS", Technique::Esteem,
       &TC::weighted_speedup, &G::esteem_ws, &P::esteem_ws, 3, 0.01, false, 0.0},
      {"rpv_ws", "RPV weighted speedup", "RPV WS", Technique::RefrintRPV,
       &TC::weighted_speedup, &G::rpv_ws, &P::rpv_ws, 3, 0.01, false, 0.0},
      {"esteem_rpki_dec", "ESTEEM RPKI decrease", "ESTEEM RPKI dec", Technique::Esteem,
       &TC::rpki_decrease, &G::esteem_rpki_dec, &P::esteem_rpki_dec,
       1, 0.02, true, 0.0},
      {"rpv_rpki_dec", "RPV RPKI decrease", "RPV RPKI dec", Technique::RefrintRPV,
       &TC::rpki_decrease, &G::rpv_rpki_dec, &P::rpv_rpki_dec, 1, 0.02, true, 0.0},
      {"esteem_mpki_inc", "ESTEEM MPKI increase", "ESTEEM MPKI inc", Technique::Esteem,
       &TC::mpki_increase, &G::esteem_mpki_inc, nullptr, 3, 0.05, false, 0.0},
      {"esteem_active_pct", "ESTEEM active ratio %", "ESTEEM active %", Technique::Esteem,
       &TC::active_ratio_pct, &G::esteem_active_pct, nullptr, 1, 1.0, false, 0.0},
  };
  return kMetrics;
}

const FigureSpec* find_figure(const std::string& id) {
  for (const FigureSpec& f : figure_matrix()) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

std::vector<std::string> FigureResult::workloads() const {
  std::vector<std::string> out;
  for (const sim::WorkloadRow& row : sweep.rows) {
    if (row.completed) out.push_back(row.workload);
  }
  return out;
}

namespace {

std::vector<double> energy_series(const sim::SweepResult& sweep,
                                  sim::Technique technique) {
  std::size_t slot = 0;
  for (; slot < sweep.techniques.size(); ++slot) {
    if (sweep.techniques[slot] == technique) break;
  }
  std::vector<double> out;
  if (slot == sweep.techniques.size()) return out;
  for (const sim::WorkloadRow& row : sweep.rows) {
    if (row.completed) out.push_back(row.comparisons[slot].energy_saving_pct);
  }
  return out;
}

}  // namespace

std::vector<double> FigureResult::esteem_energy_savings() const {
  return energy_series(sweep, sim::Technique::Esteem);
}

std::vector<double> FigureResult::rpv_energy_savings() const {
  return energy_series(sweep, sim::Technique::RefrintRPV);
}

SystemConfig figure_config(const FigureSpec& spec, const ScaleSpec& scale) {
  SystemConfig cfg = spec.dual ? scaled_dual(scale) : scaled_single(scale);
  if (spec.retention_us != 50.0) {
    // Historical bench construction order: scale at the default retention,
    // then change retention and recompute the interval (the retention floor
    // of scaled_interval differs between the two).
    cfg.edram.retention_us = spec.retention_us;
    cfg.esteem.interval_cycles =
        scaled_interval(cfg, scale.instr_per_core, scale.interval_env_factor);
  }
  return cfg;
}

FigureResult run_figure(const FigureSpec& spec, const ScaleSpec& scale,
                        const std::function<void(SystemConfig&)>& mutate_config) {
  FigureResult result;
  result.spec = &spec;
  result.scale = scale;
  result.config = figure_config(spec, scale);
  if (mutate_config) {
    mutate_config(result.config);
    result.config.validate();
  }

  sim::SweepSpec sweep;
  sweep.config = result.config;
  sweep.workloads = spec.dual ? trace::dual_core_workloads()
                              : trace::single_core_workloads();
  sweep.techniques = {sim::Technique::Esteem, sim::Technique::RefrintRPV};
  sweep.instr_per_core = scale.instr_per_core;
  sweep.warmup_instr_per_core = scale.warmup_per_core;
  sweep.seed = scale.seed;
  sweep.threads = scale.threads;

  result.sweep = sim::run_sweep(sweep);
  bool any_completed = false;
  for (const sim::WorkloadRow& row : result.sweep.rows) {
    any_completed |= row.completed;
  }
  if (any_completed) {
    result.esteem = result.sweep.summary(sim::Technique::Esteem);
    result.rpv = result.sweep.summary(sim::Technique::RefrintRPV);
  }
  return result;
}

std::string figure_text(const FigureResult& result) {
  const FigureSpec& spec = *result.spec;
  std::ostringstream os;
  os << scale_banner(spec.title, result.config, result.scale.instr_per_core,
                     result.scale.threads);
  os << sim::figure_report(result.sweep, spec.title) << '\n';

  TextTable summary;
  summary.set_header({"average metric", "paper", "measured"});
  for (const FigureMetric& m : figure_metrics()) {
    // The paper reports its averages to at most two decimals.
    summary.add_row({m.label,
                     m.paper != nullptr ? fmt(spec.paper.*m.paper, std::min(m.digits, 2))
                                        : "-",
                     fmt(m.read(result.esteem, result.rpv), m.digits)});
  }

  os << "Summary vs. paper-reported averages (shape, not absolutes):\n"
     << summary.to_string() << '\n';
  return os.str();
}

Fig2Result fig2_check(const telemetry::IntervalRecorder& intervals,
                      std::uint32_t modules, double avg_active_ratio) {
  Fig2Result result;
  result.avg_active_ratio = avg_active_ratio;
  result.intervals = intervals.rows();
  const std::vector<double>& ratio = intervals.series("active_ratio");
  for (double r : ratio) result.ratio_changes |= (r != ratio.front());
  for (std::uint32_t m = 1; m < modules; ++m) {
    const auto& ways = intervals.series("module" + std::to_string(m) + "_active_ways");
    result.module_diversity |= ways != intervals.series("module0_active_ways");
  }
  return result;
}

Fig2Result run_fig2(const ScaleSpec& scale) {
  sim::RunSpec spec;
  spec.config = scaled_single(scale);
  spec.technique = sim::Technique::Esteem;
  spec.workload = {"H2", {"h264ref"}};
  spec.instr_per_core = scale.instr_per_core;
  spec.warmup_instr_per_core = scale.warmup_per_core;
  spec.seed = scale.seed;

  telemetry::IntervalRecorder intervals;
  const sim::RunOutcome out = sim::run_experiment(spec, &intervals);
  const std::uint32_t modules = spec.config.esteem.modules;
  Fig2Result result = fig2_check(intervals, modules, out.raw.avg_active_ratio);

  TextTable t;
  std::vector<std::string> header{"interval", "Mcycle", "active%"};
  for (std::uint32_t m = 0; m < modules; ++m) {
    // Appended rather than "m" + std::to_string(m): GCC 12 Release builds
    // flag that operator+ overload with a false -Wrestrict.
    std::string column = "m";
    column += std::to_string(m);
    header.push_back(std::move(column));
  }
  t.set_header(std::move(header));

  // Print at most ~40 evenly spaced samples so the table stays readable.
  const std::size_t rows = intervals.rows();
  const std::size_t stride = rows == 0 ? 1 : (rows + 39) / 40;
  for (std::size_t i = 0; i < rows; i += stride) {
    std::vector<std::string> row{std::to_string(i + 1),
                                 fmt(static_cast<double>(intervals.cycle(i)) / 1e6, 2),
                                 fmt(100.0 * intervals.series("active_ratio")[i], 1)};
    for (std::uint32_t m = 0; m < modules; ++m) {
      const double w = intervals.series("module" + std::to_string(m) + "_active_ways")[i];
      row.push_back(std::to_string(static_cast<std::uint32_t>(w)));
    }
    t.add_row(std::move(row));
  }

  std::ostringstream os;
  os << scale_banner("Figure 2: ESTEEM reconfiguration timeline (h264ref)",
                     spec.config, scale.instr_per_core, scale.threads)
     << t.to_string() << '\n'
     << "modules reconfigured independently : "
     << (result.module_diversity ? "yes" : "no") << '\n'
     << "active ratio varies over intervals : "
     << (result.ratio_changes ? "yes" : "no") << '\n'
     << "run-average active ratio           : "
     << fmt(100.0 * result.avg_active_ratio, 1) << "%\n";
  result.text = os.str();
  return result;
}

}  // namespace esteem::validation
