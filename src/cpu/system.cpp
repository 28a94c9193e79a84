#include "cpu/system.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

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
  return run_group(options, {}).front();
}

std::vector<RawRunResult> System::run_group(
    const RunOptions& options, const std::vector<telemetry::RunSink*>& sinks) {
  if (options.instr_per_core == 0) {
    throw std::invalid_argument("System: instr_per_core must be positive");
  }
  const std::size_t nruns = runs_.size();

  // Warm-up: fill the caches at full associativity, then zero all counters
  // (the paper fast-forwards before measuring, §6.4).
  const instr_t warmup = options.warmup_instr_per_core;
  run_to(std::vector<instr_t>(cores_.size(), warmup), [this](std::size_t c) { step(c); });
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
  for (std::size_t c = 0; c < cores_.size(); ++c) base_instr[c] = cores_[c].instret();

  std::vector<std::vector<double>> ipc(nruns, std::vector<double>(cores_.size(), 0.0));
  std::vector<bool> recorded(cores_.size(), false);
  std::size_t unfinished = cores_.size();

  // The measured loop: the core with the smallest local clock steps next,
  // for causal consistency, and a finished core keeps contending until
  // every core finishes.
  for (const std::unique_ptr<MemorySystem>& mem : hierarchies_) mem->arm_intervals();
  while (unfinished > 0) {
    std::size_t next = 0;
    for (std::size_t c = 1; c < cores_.size(); ++c) {
      if (clock(c) < clock(next)) next = c;
    }
    step(next);
    const Core& core = cores_[next];

    if (!recorded[next] && core.instret() >= target) {
      recorded[next] = true;
      for (std::size_t r = 0; r < nruns; ++r) {
        const RunSlot& run = runs_[r];
        ipc[r][next] = static_cast<double>(core.instret() - base_instr[next]) /
                       static_cast<double>(run.mem->measured_cycles(
                           static_cast<std::uint32_t>(next), run.lane));
      }
      --unfinished;
    }
    for (const std::unique_ptr<MemorySystem>& mem : hierarchies_) mem->pump_intervals();
  }

  std::vector<RawRunResult> results;
  results.reserve(nruns);
  for (std::size_t r = 0; r < nruns; ++r) {
    RawRunResult& result = results.emplace_back(runs_[r].mem->finish(runs_[r].lane));
    result.ipc = std::move(ipc[r]);
    result.instr_per_core = options.instr_per_core;
    result.total_instructions = options.instr_per_core * cores_.size();
  }
  return results;
}

}  // namespace esteem::cpu
