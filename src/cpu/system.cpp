#include "cpu/system.hpp"

#include <algorithm>
#include <optional>
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
    : cfg_(cfg) {
  if (techniques.size() > 1 && !shares_stream(cfg)) {
    throw std::invalid_argument(
        "System: runs under this config cannot share a reference stream");
  }
  // Hierarchies in order of their first run, so hierarchy 0 serves run 0:
  // the refresh-only runs share one, every other run has its own.
  std::vector<std::vector<Technique>> layout;
  std::vector<std::pair<std::size_t, std::size_t>> where;  // (hierarchy, lane)
  std::optional<std::size_t> shared;
  for (Technique t : techniques) {
    if (!fusable(cfg, t)) {
      where.emplace_back(layout.size(), 0);
      layout.push_back({t});
      continue;
    }
    if (!shared) {
      shared = layout.size();
      layout.emplace_back();
    }
    where.emplace_back(*shared, layout[*shared].size());
    layout[*shared].push_back(t);
  }
  for (const std::vector<Technique>& lanes : layout) {
    hierarchies_.push_back(std::make_unique<MemorySystem>(cfg, lanes));
  }
  for (const auto& [h, lane] : where) runs_.push_back({hierarchies_[h].get(), lane});

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
  const std::size_t nruns = runs_.size();
  // The core with the smallest local clock steps next, for causal
  // consistency. Only a single-core System has more than one run, so run
  // 0's clocks order every run's steps.
  MemorySystem& mem0 = *hierarchies_.front();
  const auto cycles = [&mem0](std::size_t c) {
    return mem0.cycles(static_cast<std::uint32_t>(c));
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
      cores_[next].step(hierarchies_);
      if (!warm[next] && cores_[next].instret() >= warmup) {
        warm[next] = true;
        --cold;
      }
    }
  }
  for (const std::unique_ptr<MemorySystem>& mem : hierarchies_) mem->start_measurement();
  for (std::size_t r = 0; r < nruns && r < sinks.size(); ++r) {
    // Attached after the measurement reset so interval deltas and trace
    // timestamps cover exactly the measured window.
    const RunSlot& run = runs_[r];
    if (sinks[r] != nullptr) {
      run.mem->set_telemetry(sinks[r], run.mem->wall(run.lane), run.lane);
    }
  }

  const instr_t target = warmup + options.instr_per_core;
  std::vector<instr_t> base_instr(cores_.size());
  std::vector<std::vector<cycle_t>> base_cycles(nruns,
                                                std::vector<cycle_t>(cores_.size()));
  std::vector<cycle_t> measure_start(nruns);
  for (std::size_t r = 0; r < nruns; ++r) {
    const RunSlot& run = runs_[r];
    measure_start[r] = run.mem->wall(run.lane);
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      base_cycles[r][c] = run.mem->cycles(static_cast<std::uint32_t>(c), run.lane);
    }
  }
  for (std::size_t c = 0; c < cores_.size(); ++c) base_instr[c] = cores_[c].instret();

  std::vector<RawRunResult> results(nruns);
  for (RawRunResult& result : results) result.ipc.assign(cores_.size(), 0.0);
  std::vector<bool> recorded(cores_.size(), false);
  std::size_t unfinished = cores_.size();

  for (const std::unique_ptr<MemorySystem>& mem : hierarchies_) mem->arm_intervals();
  while (unfinished > 0) {
    std::size_t next = 0;
    for (std::size_t c = 1; c < cores_.size(); ++c) {
      if (cycles(c) < cycles(next)) next = c;
    }
    Core& core = cores_[next];
    core.step(hierarchies_);

    if (!recorded[next] && core.instret() >= target) {
      recorded[next] = true;
      for (std::size_t r = 0; r < nruns; ++r) {
        const RunSlot& run = runs_[r];
        const cycle_t now = run.mem->cycles(static_cast<std::uint32_t>(next), run.lane);
        results[r].ipc[next] = static_cast<double>(core.instret() - base_instr[next]) /
                               static_cast<double>(now - base_cycles[r][next]);
      }
      --unfinished;
    }
    for (const std::unique_ptr<MemorySystem>& mem : hierarchies_) mem->pump_intervals();
  }

  for (std::size_t r = 0; r < nruns; ++r) {
    MemorySystem& mem = *runs_[r].mem;
    const std::size_t lane = runs_[r].lane;
    cycle_t wall_end = 0;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      wall_end = std::max(wall_end, mem.cycles(static_cast<std::uint32_t>(c), lane));
    }
    mem.finish(wall_end, lane);

    RawRunResult& result = results[r];
    result.instr_per_core = options.instr_per_core;
    result.wall_cycles = wall_end - measure_start[r];
    result.total_instructions = options.instr_per_core * cores_.size();
    result.counters = mem.energy_counters(wall_end, lane);
    result.mem_stats = mem.stats();
    result.refreshes = mem.refreshes(lane);
    result.demand_misses = mem.stats().demand_l2_misses;
    result.faults = mem.fault_counters();
    result.disabled_slots = mem.disabled_slots();
    result.avg_active_ratio =
        result.counters.seconds > 0.0
            ? result.counters.fa_seconds / result.counters.seconds
            : 1.0;
  }
  return results;
}

}  // namespace esteem::cpu
