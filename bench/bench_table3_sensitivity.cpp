// Table 3: parameter-sensitivity study for ESTEEM. One row per parameter
// variation (one parameter changed from the defaults at a time), for both
// the single-core and dual-core systems, at 50 us retention.
//
// Environment knobs (this is the heaviest bench):
//   ESTEEM_TABLE3_INSTR    instructions/core per run (default ESTEEM_INSTR/2)
//   ESTEEM_TABLE3_STRIDE   use every k-th workload (default 1 = all)
//   ESTEEM_TABLE3_SECTION  "single", "dual", or "both" (default both)
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "sim/runner.hpp"
#include "trace/workloads.hpp"

namespace {

using namespace esteem;

struct Row {
  std::string label;
  std::function<void(SystemConfig&)> mutate;  // applied to the default config
  double interval_factor = 1.0;               // Table 3's 5M/15M rows
};

std::vector<Row> parameter_rows(bool dual) {
  std::vector<Row> rows;
  rows.push_back({"default", [](SystemConfig&) {}});
  rows.push_back({"Amin=2", [](SystemConfig& c) { c.esteem.a_min = 2; }});
  rows.push_back({"Amin=4", [](SystemConfig& c) { c.esteem.a_min = 4; }});
  rows.push_back({"alpha=0.95", [](SystemConfig& c) { c.esteem.alpha = 0.95; }});
  rows.push_back({"alpha=0.99", [](SystemConfig& c) { c.esteem.alpha = 0.99; }});
  // Module-count rows differ between the two systems (defaults 8 vs 16).
  const std::vector<std::uint32_t> module_counts =
      dual ? std::vector<std::uint32_t>{4, 8, 32, 64}
           : std::vector<std::uint32_t>{2, 4, 16, 32};
  for (std::uint32_t m : module_counts) {
    rows.push_back({std::to_string(m) + " modules",
                    [m](SystemConfig& c) { c.esteem.modules = m; }});
  }
  rows.push_back({"5M interval", [](SystemConfig&) {}, 0.5});
  rows.push_back({"15M interval", [](SystemConfig&) {}, 1.5});
  rows.push_back({"Rs=32", [](SystemConfig& c) { c.esteem.sampling_ratio = 32; }});
  rows.push_back({"Rs=128", [](SystemConfig& c) { c.esteem.sampling_ratio = 128; }});
  rows.push_back({"8-way L2", [](SystemConfig& c) { c.l2.geom.ways = 8; }});
  rows.push_back({"32-way L2", [](SystemConfig& c) { c.l2.geom.ways = 32; }});
  const std::uint64_t half = dual ? 4 : 2, twice = dual ? 16 : 8;
  rows.push_back({std::to_string(half) + "MB L2", [half](SystemConfig& c) {
                    c.l2.geom.size_bytes = half * 1024 * 1024;
                  }});
  rows.push_back({std::to_string(twice) + "MB L2", [twice](SystemConfig& c) {
                    c.l2.geom.size_bytes = twice * 1024 * 1024;
                  }});
  return rows;
}

std::vector<trace::Workload> strided(std::vector<trace::Workload> all,
                                     std::uint64_t stride) {
  if (stride <= 1) return all;
  std::vector<trace::Workload> out;
  for (std::size_t i = 0; i < all.size(); i += stride) out.push_back(all[i]);
  return out;
}

void run_section(bool dual, instr_t instr, std::uint64_t stride) {
  const auto workloads =
      strided(dual ? trace::dual_core_workloads() : trace::single_core_workloads(),
              stride);
  std::printf("%s-core system (%zu workloads, %llu instr/core per run)\n",
              dual ? "Two" : "Single", workloads.size(),
              static_cast<unsigned long long>(instr));

  TextTable t;
  t.set_header({"configuration", "energy-saving%", "rel-perf", "RPKI-dec",
                "MPKI-inc", "active%"});
  for (const Row& row : parameter_rows(dual)) {
    SystemConfig cfg = dual ? SystemConfig::dual_core() : SystemConfig::single_core();
    row.mutate(cfg);
    bench::apply_bench_interval(cfg, instr, row.interval_factor);
    cfg.validate();

    sim::SweepSpec spec;
    spec.config = cfg;
    spec.workloads = workloads;
    spec.techniques = {sim::Technique::Esteem};
    spec.instr_per_core = instr;
    spec.warmup_instr_per_core = instr / 5;
    spec.seed = bench::seed();
    spec.threads = bench::threads();

    const sim::SweepResult result = sim::run_sweep(spec);
    const sim::TechniqueComparison s = result.summary(sim::Technique::Esteem);
    t.add_row({row.label, fmt(s.energy_saving_pct, 2), fmt(s.weighted_speedup, 2),
               fmt(s.rpki_decrease, 1), fmt(s.mpki_increase, 2),
               fmt(s.active_ratio_pct, 2)});
  }
  std::printf("%s\n", t.to_string().c_str());
}

}  // namespace

int main() {
  const instr_t instr = bench::read_setting(
      [] { return env_u64("ESTEEM_TABLE3_INSTR", bench::instr_per_core() / 2); });
  const std::uint64_t stride =
      bench::read_setting([] { return env_u64("ESTEEM_TABLE3_STRIDE", 1); });
  const std::string section = env_str("ESTEEM_TABLE3_SECTION", "both");

  std::printf("Table 3: ESTEEM parameter sensitivity (50us retention).\n"
              "Each row changes one parameter from the defaults.\n\n");
  if (section == "single" || section == "both") run_section(false, instr, stride);
  if (section == "dual" || section == "both") run_section(true, instr, stride);
  return 0;
}
