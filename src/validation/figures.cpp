#include "validation/figures.hpp"

#include <cstdint>
#include <cstdio>
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

  const PaperAverages& paper = spec.paper;
  TextTable summary;
  summary.set_header({"average metric", "paper", "measured"});
  summary.add_row({"ESTEEM energy saving %", fmt(paper.esteem_energy_pct, 2),
                   fmt(result.esteem.energy_saving_pct, 2)});
  summary.add_row({"RPV energy saving %", fmt(paper.rpv_energy_pct, 2),
                   fmt(result.rpv.energy_saving_pct, 2)});
  summary.add_row({"ESTEEM weighted speedup", fmt(paper.esteem_ws, 2),
                   fmt(result.esteem.weighted_speedup, 3)});
  summary.add_row({"RPV weighted speedup", fmt(paper.rpv_ws, 2),
                   fmt(result.rpv.weighted_speedup, 3)});
  summary.add_row({"ESTEEM RPKI decrease", fmt(paper.esteem_rpki_dec, 1),
                   fmt(result.esteem.rpki_decrease, 1)});
  summary.add_row({"RPV RPKI decrease", fmt(paper.rpv_rpki_dec, 1),
                   fmt(result.rpv.rpki_decrease, 1)});
  summary.add_row({"ESTEEM MPKI increase", "-", fmt(result.esteem.mpki_increase, 3)});
  summary.add_row({"ESTEEM active ratio %", "-", fmt(result.esteem.active_ratio_pct, 1)});

  os << "Summary vs. paper-reported averages (shape, not absolutes):\n"
     << summary.to_string() << '\n';
  return os.str();
}

int figure_bench_main(const std::string& id) {
  const FigureSpec* spec = find_figure(id);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown figure id '%s'\n", id.c_str());
    return 2;
  }
  const FigureResult result = run_figure(*spec, bench_scale());
  std::fputs(figure_text(result).c_str(), stdout);
  return result.sweep.ok() ? 0 : 3;
}

Fig2Result run_fig2(const ScaleSpec& scale) {
  sim::RunSpec spec;
  spec.config = scaled_single(scale);
  spec.technique = sim::Technique::Esteem;
  spec.workload = {"H2", {"h264ref"}};
  spec.instr_per_core = scale.instr_per_core;
  spec.warmup_instr_per_core = scale.warmup_per_core;
  spec.seed = scale.seed;
  spec.record_timeline = true;

  const std::shared_ptr<const sim::RunOutcome> out = sim::run_experiment_cached(spec);

  Fig2Result result;
  result.avg_active_ratio = out->raw.avg_active_ratio;
  result.intervals = out->raw.timeline.size();
  for (const auto& s : out->raw.timeline) {
    for (std::uint32_t w : s.module_ways) {
      result.module_diversity |= (w != s.module_ways.front());
    }
    result.ratio_changes |=
        (s.active_ratio != out->raw.timeline.front().active_ratio);
  }
  return result;
}

}  // namespace esteem::validation
