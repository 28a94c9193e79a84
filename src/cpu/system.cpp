#include "cpu/system.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "trace/file_trace.hpp"
#include "trace/spec_profiles.hpp"

namespace esteem::cpu {

System::System(const SystemConfig& cfg, Technique technique,
               const std::vector<std::string>& benchmarks, std::uint64_t seed)
    : System(cfg, std::vector<Technique>{technique}, benchmarks, seed) {}

System::System(const SystemConfig& cfg, const std::vector<Technique>& techniques,
               const std::vector<std::string>& benchmarks, std::uint64_t seed)
    : cfg_(cfg), mem_(cfg, techniques) {
  if (benchmarks.size() != cfg.ncores) {
    throw std::invalid_argument("System: need one benchmark per core");
  }
  if (cfg.esteem.interval_cycles == kPaperScaledInterval) {
    throw std::invalid_argument(
        "System: esteem.interval_cycles is paper-scaled; resolve_interval() it "
        "for the run's instruction count first");
  }
  const trace::GeneratorContext ctx{cfg.l2.geom.sets(), cfg.l2.geom.line_bytes};
  std::uint64_t seed_state = seed;
  cores_.reserve(cfg.ncores);
  for (std::uint32_t c = 0; c < cfg.ncores; ++c) {
    // "trace:<path>" replays an external trace file; anything else is a
    // Table 1 benchmark name or acronym.
    std::unique_ptr<trace::AccessGenerator> gen;
    if (benchmarks[c].rfind("trace:", 0) == 0) {
      gen = std::make_unique<trace::FileTraceGenerator>(benchmarks[c].substr(6));
      (void)splitmix64(seed_state);  // keep per-core seed stream aligned
    } else {
      const auto& profile = trace::profile_by_name(benchmarks[c]);
      gen = trace::make_generator(profile, ctx, splitmix64(seed_state));
    }
    // Disjoint per-core address spaces for multiprogrammed workloads.
    cores_.emplace_back(c, std::move(gen), static_cast<block_t>(c) << trace::kCoreSpanBits);
  }
}

RawRunResult System::run(const RunOptions& options) {
  return run_group(options, {options.telemetry}).front();
}

std::vector<RawRunResult> System::run_group(
    const RunOptions& options, const std::vector<telemetry::RunSink*>& sinks) {
  if (options.instr_per_core == 0) {
    throw std::invalid_argument("System: instr_per_core must be positive");
  }
  const std::size_t nlanes = mem_.lanes();
  // The core with the smallest local clock steps next, for causal
  // consistency. Only a single-core System has more than one lane, so lane
  // 0's clocks order every lane's steps.
  const auto cycles = [this](std::size_t c) {
    return mem_.cycles(static_cast<std::uint32_t>(c));
  };

  // Warm-up: fill the caches at full associativity, then zero all counters
  // (the paper fast-forwards before measuring, §6.4).
  const instr_t warmup = options.warmup_instr_per_core;
  if (warmup > 0) {
    std::size_t cold = cores_.size();
    std::vector<bool> warm(cores_.size(), false);
    while (cold > 0) {
      std::size_t next = 0;
      for (std::size_t c = 1; c < cores_.size(); ++c) {
        if (!warm[c] && (warm[next] || cycles(c) < cycles(next))) next = c;
      }
      cores_[next].step(mem_);
      if (!warm[next] && cores_[next].instret() >= warmup) {
        warm[next] = true;
        --cold;
      }
    }
  }
  mem_.start_measurement();
  for (std::size_t l = 0; l < nlanes && l < sinks.size(); ++l) {
    // Attached after the measurement reset so interval deltas and trace
    // timestamps cover exactly the measured window.
    if (sinks[l] != nullptr) mem_.set_telemetry(sinks[l], mem_.wall(l), l);
  }

  const instr_t target = warmup + options.instr_per_core;
  std::vector<instr_t> base_instr(cores_.size());
  std::vector<std::vector<cycle_t>> base_cycles(nlanes,
                                                std::vector<cycle_t>(cores_.size()));
  std::vector<cycle_t> measure_start(nlanes);
  for (std::size_t l = 0; l < nlanes; ++l) {
    measure_start[l] = mem_.wall(l);
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      base_cycles[l][c] = mem_.cycles(static_cast<std::uint32_t>(c), l);
    }
  }
  for (std::size_t c = 0; c < cores_.size(); ++c) base_instr[c] = cores_[c].instret();

  std::vector<RawRunResult> results(nlanes);
  for (RawRunResult& result : results) result.ipc.assign(cores_.size(), 0.0);
  std::vector<bool> recorded(cores_.size(), false);
  std::size_t unfinished = cores_.size();

  mem_.arm_intervals();
  while (unfinished > 0) {
    std::size_t next = 0;
    for (std::size_t c = 1; c < cores_.size(); ++c) {
      if (cycles(c) < cycles(next)) next = c;
    }
    Core& core = cores_[next];
    core.step(mem_);

    if (!recorded[next] && core.instret() >= target) {
      recorded[next] = true;
      for (std::size_t l = 0; l < nlanes; ++l) {
        const cycle_t cycles = mem_.cycles(static_cast<std::uint32_t>(next), l);
        results[l].ipc[next] = static_cast<double>(core.instret() - base_instr[next]) /
                               static_cast<double>(cycles - base_cycles[l][next]);
      }
      --unfinished;
    }
    mem_.pump_intervals();
  }

  for (std::size_t l = 0; l < nlanes; ++l) {
    cycle_t wall_end = 0;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      wall_end = std::max(wall_end, mem_.cycles(static_cast<std::uint32_t>(c), l));
    }
    mem_.finish(wall_end, l);

    RawRunResult& result = results[l];
    result.instr_per_core = options.instr_per_core;
    result.wall_cycles = wall_end - measure_start[l];
    result.total_instructions = options.instr_per_core * cores_.size();
    result.counters = mem_.energy_counters(wall_end, l);
    result.mem_stats = mem_.stats();
    result.refreshes = mem_.refreshes(l);
    result.demand_misses = mem_.stats().demand_l2_misses;
    result.faults = mem_.fault_counters();
    result.disabled_slots = mem_.disabled_slots();
    result.avg_active_ratio =
        result.counters.seconds > 0.0
            ? result.counters.fa_seconds / result.counters.seconds
            : 1.0;
  }
  return results;
}

}  // namespace esteem::cpu
