// Refrint polyphase refresh policies (Agrawal et al., HPCA 2013), the
// comparison technique of the paper (§6.2).
//
// The retention period is divided into P phases (the paper evaluates P=4).
// Each line remembers the phase in which it was last filled, touched, or
// refreshed. A line tagged with phase p is due for refresh at the start of
// the next phase-p window — exactly one retention period after the window
// in which it was last touched. Consequences:
//   * Only valid lines are ever refreshed.
//   * A line touched at least once per retention period keeps moving its tag
//     to the current phase, so scheduled refreshes for it are skipped ("on a
//     read or a write, a cache block is automatically refreshed").
//
// PolyphaseValidPolicy  = Refrint RPV (refresh every due valid line).
// PolyphaseDirtyPolicy  = Refrint RPD (refresh due dirty lines; eagerly
//                         invalidate due clean lines). The paper argues RPD
//                         over-invalidates (§6.2); we implement it for the
//                         ablation bench.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "common/types.hpp"
#include "edram/live_slots.hpp"
#include "edram/refresh_policy.hpp"

namespace esteem::refrint {

class PolyphaseValidPolicy : public edram::RefreshPolicy {
 public:
  PolyphaseValidPolicy(std::uint32_t sets, std::uint32_t ways, std::uint32_t phases,
                       cycle_t retention_cycles);

  std::uint64_t advance(cycle_t now) override;
  /// Refresh demand estimate: refreshes actually performed over the last
  /// full retention period (rolling window over the last P phase events).
  double refresh_lines_per_period() const override;

  void on_fill(std::uint32_t set, std::uint32_t way, block_t blk, cycle_t now) override;
  void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) override;
  void on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty, cycle_t now) override;

  std::uint32_t phases() const noexcept { return phases_; }
  std::uint64_t valid_lines() const noexcept { return valid_; }
  std::uint64_t phase_count(std::uint32_t p) const { return phase_valid_[p]; }

 protected:
  /// Refreshes the lines due at a boundary opening phase `p` at time `t`;
  /// returns how many line refreshes were performed. Overridden by RPD.
  virtual std::uint64_t refresh_due(std::uint32_t p, cycle_t t);

  std::uint32_t phase_of(cycle_t now) const noexcept {
    return static_cast<std::uint32_t>((now / phase_len_) % phases_);
  }

  std::uint32_t idx(std::uint32_t set, std::uint32_t way) const noexcept {
    return set * ways_ + way;
  }

  std::uint32_t ways_;
  std::uint32_t phases_;
  cycle_t retention_;
  cycle_t phase_len_;
  cycle_t next_boundary_;

  std::vector<std::uint8_t> tag_;          ///< Last-touch phase per slot.
  std::vector<std::uint64_t> phase_valid_; ///< Valid lines per phase tag.
  std::uint64_t valid_ = 0;

  std::vector<std::uint64_t> recent_;      ///< Refreshes at the last P boundaries.
  std::size_t recent_pos_ = 0;
};

class PolyphaseDirtyPolicy final : public PolyphaseValidPolicy {
 public:
  /// `cache` is the cache whose clean lines RPD eagerly invalidates; the
  /// policy must be registered as that cache's listener.
  PolyphaseDirtyPolicy(cache::SetAssocCache& cache, std::uint32_t phases,
                       cycle_t retention_cycles);

  void on_fill(std::uint32_t set, std::uint32_t way, block_t blk, cycle_t now) override;
  void on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty, cycle_t now) override;

 protected:
  std::uint64_t refresh_due(std::uint32_t p, cycle_t t) override;

 private:
  cache::SetAssocCache& cache_;
  edram::LiveSlots live_;  ///< Only RPD scans lines; RPV counts phase tags.
};

}  // namespace esteem::refrint
