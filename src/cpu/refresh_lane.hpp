// One refresh technique's timing view of the shared cache hierarchy.
//
// The memory system splits into a functional hierarchy (the L1s and the L2
// tags, which decide hits, misses and victims) and one or more refresh
// lanes. A lane is one run's record: it owns everything a refresh technique
// changes about time and energy, namely its refresh policy and N_R count,
// the L2 bank timers, the memory channel, the core clocks, the interval
// boundary, the F_A window and the telemetry sink. It owns nothing that
// decides which lines hit. The memory system hands every lane the same
// stream of L1/L2 events, each at that lane's own cycle, and closes each
// run from its lane (DESIGN.md §7, "Hierarchy and lanes").
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cache/bank.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "cpu/technique.hpp"
#include "edram/refresh_policy.hpp"
#include "mem/main_memory.hpp"
#include "telemetry/telemetry.hpp"

namespace esteem::cpu {

/// A core's position on one lane's time axis.
struct CoreClock {
  cycle_t cycles = 0;
  double carry = 0.0;  ///< Fractional cycles owed by CPI-scaled advances.
  cycle_t start = 0;   ///< `cycles` when measurement began.
};

struct RefreshLane {
  static constexpr cycle_t kNever = std::numeric_limits<cycle_t>::max();

  RefreshLane(const SystemConfig& cfg, Technique technique,
              std::unique_ptr<edram::RefreshPolicy> policy);

  /// Pumps the policy's refresh events up to `now` into N_R.
  void advance(cycle_t now) { total_refreshes += policy->advance(now); }

  /// Re-derives the banks' refresh injection rate from the policy's current
  /// lines-per-period demand. Called at interval boundaries: the refresh
  /// load tracks the valid/active footprint at interval granularity.
  void sync_bank_load(cycle_t now) {
    banks.set_refresh_load(policy->refresh_lines_per_period(), retention, now);
  }

  /// N_R since the lane's measurement began.
  std::uint64_t refreshes() const noexcept { return total_refreshes - refresh_baseline; }

  /// The lane's wall clock: its slowest core.
  cycle_t wall() const noexcept {
    cycle_t w = clocks[0].cycles;
    for (std::size_t c = 1; c < clocks.size(); ++c) w = std::min(w, clocks[c].cycles);
    return w;
  }

  /// Closes the F_A integral up to `now` at the current value.
  void close_fa(cycle_t now) noexcept {
    fa_cycles += fa_current * static_cast<double>(now - fa_last_update);
    fa_last_update = now;
  }

  Technique technique;
  std::unique_ptr<edram::RefreshPolicy> policy;
  cache::BankGroup banks;
  mem::MainMemory mm;
  double retention;  ///< Retention period in cycles: the refresh load's period.

  std::vector<CoreClock> clocks;  ///< One per core.
  cycle_t next_tick = kNever;     ///< Next interval boundary (kNever: disarmed).

  // One memory access that missed the L1, in flight: its issue cycle and
  // latency on this lane. `at` and `l2_latency` are the cycle and the
  // latency of the L2 operation being served; `at` is the `now` the lane's
  // policy sees for the L2's line events.
  cycle_t issue = 0;
  cycle_t latency = 0;
  cycle_t at = 0;
  cycle_t l2_latency = 0;

  // Time-weighted F_A integral (in cycles) and the measured window.
  double fa_cycles = 0.0;
  cycle_t fa_last_update = 0;
  double fa_current = 1.0;
  cycle_t measure_start = 0;
  std::uint64_t total_refreshes = 0;   ///< N_R since construction.
  std::uint64_t refresh_baseline = 0;  ///< N_R before measurement.

  // Per-run telemetry sink (null = telemetry off, the default). Baselines
  // hold the previous interval's cumulative counters so samples are deltas.
  telemetry::RunSink* telemetry = nullptr;
  struct TelemetryBaseline {
    std::uint64_t demand_hits = 0;
    std::uint64_t demand_misses = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t transitions = 0;
    std::uint64_t reconfig_writebacks = 0;
    std::uint64_t corrected_reads = 0;
    std::uint64_t uncorrectable = 0;
  } tel_last;
};

}  // namespace esteem::cpu
