// Multi-core system: cores + shared memory hierarchy + the interval clock.
// A single-core System may run several techniques at once over one
// reference stream: the refresh-only ones share one L1/L2 pass, one refresh
// lane each, and every other one runs on a hierarchy of its own.
//
// Cores advance in lockstep order of their local clocks (the core with the
// smallest cycle count steps next), so contention on the shared L2 banks and
// the memory channel is causally consistent. Interval boundaries are driven
// by the wall clock (the minimum core cycle), matching the paper's
// methodology: each benchmark runs a fixed instruction count, a finished
// core keeps running (and contending) until all cores finish, but its IPC is
// recorded at its own target crossing (§6.4). Each run is closed by its
// lane (MemorySystem::finish); the System adds only what the cores know, the
// IPC and the instruction counts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "cpu/core_model.hpp"
#include "cpu/memory_system.hpp"
#include "cpu/technique.hpp"

namespace esteem::cpu {

struct RunOptions {
  instr_t instr_per_core = 8'000'000;
  /// Instructions each core executes before measurement begins (the paper
  /// fast-forwards 10B instructions, §6.4). Warm-up fills the caches at full
  /// associativity; no reconfiguration intervals fire and no counters
  /// accumulate during it.
  instr_t warmup_instr_per_core = 0;
  std::uint64_t seed = 42;
};

class System {
 public:
  /// `benchmarks` has one benchmark name per core (cfg.ncores entries).
  /// Throws std::invalid_argument when cfg's interval is still
  /// kPaperScaledInterval (see resolve_interval).
  System(const SystemConfig& cfg, Technique technique,
         const std::vector<std::string>& benchmarks, std::uint64_t seed);

  /// One run per technique over one reference stream. The refresh-only
  /// techniques (cpu::fusable) share one hierarchy, one refresh lane each;
  /// every other technique gets a hierarchy of its own. More than one
  /// technique needs shares_stream(cfg); throws std::invalid_argument
  /// otherwise.
  System(const SystemConfig& cfg, const std::vector<Technique>& techniques,
         const std::vector<std::string>& benchmarks, std::uint64_t seed);

  /// Runs run 0 (the only run of a single-technique System), telemetry
  /// off. Throws std::invalid_argument when options.instr_per_core is 0.
  RawRunResult run(const RunOptions& options);

  /// Runs every run at once; one result per technique, in order, each
  /// bit-identical to a single-technique System's run. `sinks` is empty or
  /// holds one telemetry sink (null = off) per run; each must outlive the
  /// call.
  std::vector<RawRunResult> run_group(const RunOptions& options,
                                      const std::vector<telemetry::RunSink*>& sinks);

  /// Steps the core with the smallest clock, among cores short of
  /// `targets[c]` retired instructions, until every core reaches its
  /// target. `step(c)` executes one batch of core c; interval boundaries
  /// are pumped after each (a no-op while they are disarmed). A core stops
  /// at its target, so sampled segment schedules stay aligned across cores
  /// (the tail contention a window loses is a documented bias,
  /// docs/SAMPLING.md §5).
  template <class StepFn>
  void run_to(const std::vector<instr_t>& targets, StepFn&& step);

  /// Detailed step: draws core `c`'s next reference once and executes it on
  /// every hierarchy.
  void step(std::size_t c) { cores_[c].step(hierarchies_); }

  /// The hierarchy that serves run 0.
  MemorySystem& memory() noexcept { return *runs_[0].mem; }
  std::vector<Core>& cores() noexcept { return cores_; }
  const SystemConfig& config() const noexcept { return cfg_; }

 private:
  /// Where a run lives: its hierarchy and its lane there.
  struct RunSlot {
    MemorySystem* mem;
    std::size_t lane;
  };

  /// Core `c`'s clock in run 0, which orders every run's steps: only a
  /// single-core System has more than one run.
  cycle_t clock(std::size_t c) const noexcept {
    return hierarchies_.front()->cycles(static_cast<std::uint32_t>(c));
  }

  SystemConfig cfg_;
  std::vector<std::unique_ptr<MemorySystem>> hierarchies_;  ///< In order of first run.
  std::vector<RunSlot> runs_;                               ///< One per technique.
  std::vector<Core> cores_;
};

template <class StepFn>
void System::run_to(const std::vector<instr_t>& targets, StepFn&& step) {
  std::vector<bool> done(cores_.size());
  std::size_t remaining = 0;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    done[c] = cores_[c].instret() >= targets[c];
    if (!done[c]) ++remaining;
  }
  while (remaining > 0) {
    std::size_t next = cores_.size();
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      if (done[c]) continue;
      if (next == cores_.size() || clock(c) < clock(next)) next = c;
    }
    step(next);
    if (cores_[next].instret() >= targets[next]) {
      done[next] = true;
      --remaining;
    }
    for (const std::unique_ptr<MemorySystem>& mem : hierarchies_) mem->pump_intervals();
  }
}

}  // namespace esteem::cpu
