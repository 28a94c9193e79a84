// Quickstart: simulate one benchmark under the baseline eDRAM cache and
// under ESTEEM, and report the energy saving and speedup.
//
//   ./quickstart [benchmark] [instructions]
//
// Defaults: h264ref, 4M instructions.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace esteem;

  const std::string benchmark = argc > 1 ? argv[1] : "h264ref";
  const instr_t instructions = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                        : 4'000'000;

  // Paper single-core setup: 4 MB 16-way eDRAM L2, 50 us retention,
  // alpha = 0.97, A_min = 3, 8 modules, R_s = 64. The reconfiguration
  // interval shrinks with the shortened run, by the same rule the CLI uses.
  SystemConfig cfg = SystemConfig::single_core();
  apply_scaled_interval(cfg, instructions);

  sim::RunSpec spec;
  spec.config = cfg;
  spec.technique = sim::Technique::Esteem;
  spec.workload = {benchmark, {benchmark}};
  spec.instr_per_core = instructions;

  std::printf("Simulating %s for %llu instructions...\n\n", benchmark.c_str(),
              static_cast<unsigned long long>(instructions));

  const sim::TechniqueComparison c = sim::run_and_compare(spec);

  std::printf("ESTEEM vs. baseline eDRAM LLC (refresh-all):\n");
  std::printf("  memory-subsystem energy saving : %6.2f %%\n", c.energy_saving_pct);
  std::printf("  speedup                        : %6.3fx\n", c.weighted_speedup);
  std::printf("  refreshes per kilo-instruction : %8.1f -> %8.1f (-%.1f)\n",
              c.rpki_base, c.rpki_tech, c.rpki_decrease);
  std::printf("  L2 MPKI                        : %8.3f -> %8.3f (+%.3f)\n",
              c.mpki_base, c.mpki_tech, c.mpki_increase);
  std::printf("  average cache active ratio     : %6.1f %%\n", c.active_ratio_pct);
  return 0;
}
