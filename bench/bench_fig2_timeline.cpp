// Figure 2: ESTEEM's reconfiguration timeline for h264ref — the active ratio
// and the per-module active-way counts over intervals, showing that modules
// are reconfigured independently and that the allocation tracks the phased
// cache demand.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "telemetry/interval_recorder.hpp"
#include "validation/figures.hpp"

int main() {
  using namespace esteem;

  const instr_t instr = bench::instr_per_core();
  SystemConfig cfg = bench::scaled_single(instr);
  bench::print_scale_banner("Figure 2: ESTEEM reconfiguration timeline (h264ref)",
                            cfg, instr);

  sim::RunSpec spec;
  spec.config = cfg;
  spec.technique = sim::Technique::Esteem;
  spec.workload = {"H2", {"h264ref"}};
  spec.instr_per_core = instr;
  spec.warmup_instr_per_core = bench::warmup_instr_per_core();
  spec.seed = bench::seed();

  telemetry::IntervalRecorder intervals;
  const sim::RunOutcome out = sim::run_experiment(spec, &intervals);

  TextTable t;
  std::vector<std::string> header{"interval", "Mcycle", "active%"};
  for (std::uint32_t m = 0; m < cfg.esteem.modules; ++m) {
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
    for (std::uint32_t m = 0; m < cfg.esteem.modules; ++m) {
      const double w = intervals.series("module" + std::to_string(m) + "_active_ways")[i];
      row.push_back(std::to_string(static_cast<std::uint32_t>(w)));
    }
    t.add_row(std::move(row));
  }
  std::printf("%s\n", t.to_string().c_str());

  // The two properties Figure 2 illustrates.
  const validation::Fig2Result check =
      validation::fig2_check(intervals, cfg.esteem.modules, out.raw.avg_active_ratio);
  std::printf("modules reconfigured independently : %s\n",
              check.module_diversity ? "yes" : "no");
  std::printf("active ratio varies over intervals : %s\n",
              check.ratio_changes ? "yes" : "no");
  std::printf("run-average active ratio           : %.1f%%\n",
              100.0 * check.avg_active_ratio);
  return 0;
}
