// Per-bank busy-window timing model coupling refresh load to demand access
// latency.
//
// Refresh requests are injected as evenly spaced slots at a configurable
// rate (lines to refresh per retention period / retention cycles). Demand
// accesses queue behind pending refresh slots and earlier accesses; the
// extra wait is the performance cost of refresh (paper §7.2: "refresh
// operations also make the cache unavailable, leading to performance
// loss"). Pending slots are drained with an O(1) closed form, so the model
// costs constant time per access regardless of how long the bank was idle.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hpp"

namespace esteem::cache {

class BankTimer {
 public:
  /// `queue_pressure` scales an analytic M/G/1-style delay term,
  /// 0.5 * s * rho / (1 - rho), added on top of the explicit busy-window
  /// wait. The explicit window is deterministic (evenly spaced refresh), so
  /// by itself it underestimates the queueing of real, jittery arrivals at
  /// mid utilizations; the analytic term restores that cost smoothly.
  /// 0 disables the term (pure busy-window model). A refresh occupancy of
  /// 0 makes refresh invisible to demand timing.
  BankTimer(double refresh_occupancy_cycles, std::uint32_t access_occupancy_cycles,
            double queue_pressure = 0.0);

  /// Sets the spacing between refresh slots in cycles; infinity disables
  /// refresh injection. Takes effect from `now` onward.
  void set_refresh_spacing(double cycles_between_refreshes, cycle_t now);

  /// Serves one demand access arriving at `now`; returns the queue wait in
  /// cycles experienced before service starts.
  cycle_t access(cycle_t now);

  /// Refresh slots processed so far (timing-side count; energy-side refresh
  /// counting lives in the refresh policies).
  std::uint64_t refresh_slots() const noexcept { return slots_; }

 private:
  void drain_refreshes(double now);

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// A real pipelined refresh engine can always sustain its schedule; the
  /// configured occupancy is *interference*, so it is clamped to 90% of the
  /// slot spacing (refresh alone never over-subscribes a bank).
  static constexpr double kMaxRefreshShare = 0.9;

  /// Upper bound on how far a bank may fall behind. When demand + refresh
  /// transiently exceed capacity this caps the queueing penalty (a real
  /// controller would throttle or drop requests long before this), keeping
  /// saturated configurations painful but finite.
  static constexpr double kMaxBacklogCycles = 1000.0;

  /// Bank utilization consumed by the refresh schedule.
  double refresh_share() const noexcept {
    return std::isinf(spacing_) ? 0.0 : refresh_occ_eff_ / spacing_;
  }
  /// Recomputes delay_ from the refresh share and the demand share; called
  /// wherever either changes.
  void update_delay() noexcept;

  double refresh_occ_;       ///< Configured interference per refresh.
  double refresh_occ_eff_;   ///< Clamped to kMaxRefreshShare * spacing.
  double access_occ_;
  double queue_pressure_;
  double spacing_ = kInf;
  double next_slot_ = kInf;
  double free_at_ = 0.0;
  std::uint64_t slots_ = 0;

  // Demand-utilization sampling window for the analytic delay term.
  static constexpr double kDemandWindowCycles = 4096.0;
  double window_start_ = 0.0;
  double window_busy_ = 0.0;
  double demand_share_ = 0.0;
  double delay_ = 0.0;  ///< The analytic delay term every access adds.
};

/// Bank group: maps a set index to one of `banks` BankTimers and spreads the
/// aggregate refresh load evenly across them.
class BankGroup {
 public:
  BankGroup(std::uint32_t banks, std::uint32_t sets, double refresh_occupancy_cycles,
            std::uint32_t access_occupancy_cycles, double queue_pressure = 0.0);

  std::uint32_t banks() const noexcept { return static_cast<std::uint32_t>(timers_.size()); }

  /// Distributes `lines_per_period / period_cycles` of refresh work evenly
  /// over the banks. lines_per_period == 0 disables refresh injection.
  void set_refresh_load(double lines_per_period, double period_cycles, cycle_t now);

  /// Serves an access to `set`; returns the bank queue wait.
  cycle_t access(std::uint32_t set, cycle_t now);

  std::uint64_t total_refresh_slots() const noexcept;

 private:
  std::uint32_t bank_of(std::uint32_t set) const noexcept {
    return set & (static_cast<std::uint32_t>(timers_.size()) - 1);
  }

  std::vector<BankTimer> timers_;
};

}  // namespace esteem::cache
