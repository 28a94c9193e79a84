// Smart-Refresh policy (Ghosh & Lee, MICRO 2007 — paper §2 related work):
// skip refreshing lines that were read or written within the current
// retention window, using a per-line timestamp instead of Refrint's coarse
// phase tags.
//
// Compared to Refrint RPV (P phases), Smart-Refresh is the P -> infinity
// limit: a line is refreshed exactly when its age reaches the retention
// period, so it never performs the up-to-one-phase-early refreshes RPV
// does. We schedule the due-checks at phase granularity too (configurable
// check period) because hardware scans row groups periodically; with a
// fine check period the policy strictly lower-bounds RPV's refresh count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "edram/live_slots.hpp"
#include "edram/refresh_policy.hpp"

namespace esteem::edram {

class SmartRefreshPolicy final : public RefreshPolicy {
 public:
  /// `check_period_cycles` is how often the refresh controller scans for
  /// due lines (must be <= retention; smaller = closer to ideal).
  SmartRefreshPolicy(std::uint32_t sets, std::uint32_t ways, cycle_t retention_cycles,
                     cycle_t check_period_cycles);

  std::uint64_t advance(cycle_t now) override;
  double refresh_lines_per_period() const override;

  void on_fill(std::uint32_t set, std::uint32_t way, block_t blk, cycle_t now) override;
  void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) override;
  void on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty,
                     cycle_t now) override;

  std::uint64_t valid_lines() const noexcept { return valid_; }

 private:
  std::uint32_t idx(std::uint32_t set, std::uint32_t way) const noexcept {
    return set * ways_ + way;
  }

  std::uint32_t ways_;
  cycle_t retention_;
  cycle_t check_period_;
  cycle_t next_check_;

  LiveSlots live_;
  std::vector<cycle_t> last_touch_;  ///< Last access *or refresh* per slot.
  std::uint64_t valid_ = 0;

  // Rolling refresh count over the last retention period, for bank load.
  std::vector<std::uint64_t> recent_;
  std::size_t recent_pos_ = 0;
};

}  // namespace esteem::edram
