// Cache Decay adapted to eDRAM (Kaxiras, Hu & Martonosi, ISCA 2001 — paper
// §2 related work [22]): per-line idle counters turn off lines that have
// not been touched for a decay interval, exploiting the "dead time" between
// a line's last access and its eviction. On an eDRAM cache this saves both
// the line's leakage *and* its refreshes; the cost is an extra miss if the
// line was not actually dead (plus a writeback when it was dirty).
//
// This is the block-granularity alternative ESTEEM's §5 contrasts itself
// with ("does not require ... per-block counters to monitor cache access
// intensity"); we implement it as a comparison technique for the ablation
// bench.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "common/types.hpp"
#include "edram/live_slots.hpp"
#include "edram/refresh_policy.hpp"

namespace esteem::edram {

class CacheDecayPolicy final : public RefreshPolicy {
 public:
  /// Checks run every `check_period_cycles`; a valid line idle for at least
  /// `decay_interval_cycles` is turned off (dirty lines are reported via the
  /// cache's eviction path as the caller observes on_invalidate). Remaining
  /// valid lines refresh once per retention period.
  CacheDecayPolicy(cache::SetAssocCache& cache, cycle_t retention_cycles,
                   cycle_t decay_interval_cycles, cycle_t check_period_cycles);

  std::uint64_t advance(cycle_t now) override;
  double refresh_lines_per_period() const override {
    return static_cast<double>(valid_);
  }

  void on_fill(std::uint32_t set, std::uint32_t way, block_t blk, cycle_t now) override;
  void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) override;
  void on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty,
                     cycle_t now) override;

  std::uint64_t valid_lines() const noexcept { return valid_; }
  /// Power-gating transitions performed so far (decay turn-offs plus the
  /// implied turn-on of the next fill into a decayed slot) — the N_L input
  /// of the energy model's E_Algo term.
  std::uint64_t transitions() const noexcept { return transitions_; }
  std::uint64_t decayed_lines() const noexcept { return decayed_; }
  /// Dirty lines flushed by decay (the caller charges memory writebacks).
  std::uint64_t decay_writebacks() const noexcept { return decay_writebacks_; }

  /// Fraction of the data array currently powered (valid or never-decayed
  /// slots); drives F_A in the energy model.
  double active_fraction() const noexcept;

 private:
  std::uint32_t idx(std::uint32_t set, std::uint32_t way) const noexcept {
    return set * ways_ + way;
  }

  cache::SetAssocCache& cache_;
  std::uint32_t ways_;
  cycle_t retention_;
  cycle_t decay_interval_;
  cycle_t check_period_;
  cycle_t next_check_;
  cycle_t next_refresh_;

  LiveSlots live_;
  std::vector<std::uint8_t> powered_;  ///< Slot gate state (off after decay).
  std::vector<cycle_t> last_touch_;

  std::uint64_t valid_ = 0;
  std::uint64_t powered_count_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t decayed_ = 0;
  std::uint64_t decay_writebacks_ = 0;
};

}  // namespace esteem::edram
