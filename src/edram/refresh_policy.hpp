// Refresh policies for an eDRAM cache.
//
// A policy is a LineListener (it tracks line lifecycle) plus a lazy clock:
// advance(now) processes all refresh events scheduled up to `now` and
// returns how many line refreshes they performed. The refresh lane
// (cpu/refresh_lane.hpp) calls advance() before every L2 access and at
// interval boundaries, so the lazy processing is exact with respect to line
// state, and adds the count to its N_R.
//
// Policies implemented here:
//  * PeriodicAllPolicy   — the paper's baseline: every line (valid or not)
//                          is refreshed once per retention period.
//  * PeriodicValidPolicy — refreshes only valid lines each period. This is
//                          both Refrint's "periodic-valid" policy and the
//                          refresh behaviour of the active portion of an
//                          ESTEEM cache (§3.1: "only valid blocks are
//                          refreshed").
// The Refrint polyphase policies (RPV/RPD) live in src/refrint.
#pragma once

#include <cstdint>

#include "cache/cache.hpp"
#include "common/types.hpp"

namespace esteem::edram {

class RefreshPolicy : public cache::LineListener {
 public:
  /// Processes refresh events scheduled in (last_advance, now]; returns the
  /// number of line refreshes performed by those events.
  virtual std::uint64_t advance(cycle_t now) = 0;

  /// Current refresh demand in lines per retention period — the timing-side
  /// load handed to the bank model.
  virtual double refresh_lines_per_period() const = 0;
};

/// Baseline: refresh all S*A lines every retention period (§6.4).
class PeriodicAllPolicy final : public RefreshPolicy {
 public:
  PeriodicAllPolicy(std::uint64_t total_lines, cycle_t retention_cycles);

  std::uint64_t advance(cycle_t now) override;
  double refresh_lines_per_period() const override {
    return static_cast<double>(total_lines_);
  }

  void on_fill(std::uint32_t, std::uint32_t, block_t, cycle_t) override {}
  void on_touch(std::uint32_t, std::uint32_t, cycle_t) override {}
  void on_invalidate(std::uint32_t, std::uint32_t, bool, cycle_t) override {}
  bool wants_touch() const noexcept override { return false; }  // stateless hits

 private:
  std::uint64_t total_lines_;
  cycle_t retention_;
  cycle_t next_boundary_;
};

/// Refresh only valid lines at each retention-period boundary.
class PeriodicValidPolicy final : public RefreshPolicy {
 public:
  explicit PeriodicValidPolicy(cycle_t retention_cycles);

  std::uint64_t advance(cycle_t now) override;
  double refresh_lines_per_period() const override {
    return static_cast<double>(valid_);
  }

  void on_fill(std::uint32_t, std::uint32_t, block_t, cycle_t) override { ++valid_; }
  void on_touch(std::uint32_t, std::uint32_t, cycle_t) override {}
  void on_invalidate(std::uint32_t, std::uint32_t, bool, cycle_t) override { --valid_; }
  bool wants_touch() const noexcept override { return false; }  // stateless hits

  std::uint64_t valid_lines() const noexcept { return valid_; }

 private:
  cycle_t retention_;
  cycle_t next_boundary_;
  std::uint64_t valid_ = 0;
};

}  // namespace esteem::edram
