#include "refrint/rpv.hpp"

#include <numeric>
#include <stdexcept>

#include "common/config.hpp"

namespace esteem::refrint {

PolyphaseValidPolicy::PolyphaseValidPolicy(std::uint32_t sets, std::uint32_t ways,
                                           std::uint32_t phases, cycle_t retention_cycles)
    : ways_(ways), phases_(phases), retention_(retention_cycles) {
  if (phases_ == 0) throw std::invalid_argument("Polyphase: phases must be >= 1");
  if (phases_ > kMaxRpvPhases) {
    throw std::invalid_argument("Polyphase: phases must be <= 256 (one-byte phase tags)");
  }
  phase_len_ = retention_cycles / phases;
  next_boundary_ = phase_len_;
  if (phase_len_ == 0) throw std::invalid_argument("Polyphase: retention shorter than phase count");
  tag_.assign(static_cast<std::size_t>(sets) * ways, 0);
  phase_valid_.assign(phases_, 0);
  recent_.assign(phases_, 0);
}

std::uint64_t PolyphaseValidPolicy::advance(cycle_t now) {
  std::uint64_t refreshed = 0;
  while (next_boundary_ <= now) {
    // The boundary at time t opens phase `phase_of(t)`; lines tagged with
    // that phase were last touched/refreshed one retention period ago.
    const std::uint32_t p = phase_of(next_boundary_);
    const std::uint64_t n = refresh_due(p, next_boundary_);
    refreshed += n;
    recent_[recent_pos_] = n;
    recent_pos_ = (recent_pos_ + 1) % phases_;
    next_boundary_ += phase_len_;
  }
  return refreshed;
}

double PolyphaseValidPolicy::refresh_lines_per_period() const {
  return static_cast<double>(
      std::accumulate(recent_.begin(), recent_.end(), std::uint64_t{0}));
}

std::uint64_t PolyphaseValidPolicy::refresh_due(std::uint32_t p, cycle_t /*t*/) {
  // Refreshing leaves the lines tagged p, so they fall due again exactly one
  // retention period later.
  return phase_valid_[p];
}

void PolyphaseValidPolicy::on_fill(std::uint32_t set, std::uint32_t way, block_t /*blk*/,
                                   cycle_t now) {
  const std::uint32_t i = idx(set, way);
  const std::uint32_t p = phase_of(now);
  tag_[i] = static_cast<std::uint8_t>(p);
  ++phase_valid_[p];
  ++valid_;
}

void PolyphaseValidPolicy::on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) {
  const std::uint32_t i = idx(set, way);
  const std::uint32_t p = phase_of(now);
  --phase_valid_[tag_[i]];
  tag_[i] = static_cast<std::uint8_t>(p);
  ++phase_valid_[p];
}

void PolyphaseValidPolicy::on_invalidate(std::uint32_t set, std::uint32_t way,
                                         bool /*dirty*/, cycle_t /*now*/) {
  --phase_valid_[tag_[idx(set, way)]];
  --valid_;
}

PolyphaseDirtyPolicy::PolyphaseDirtyPolicy(cache::SetAssocCache& cache,
                                           std::uint32_t phases, cycle_t retention_cycles)
    : PolyphaseValidPolicy(cache.sets(), cache.ways(), phases, retention_cycles),
      cache_(cache),
      live_(static_cast<std::size_t>(cache.sets()) * cache.ways()) {}

void PolyphaseDirtyPolicy::on_fill(std::uint32_t set, std::uint32_t way, block_t blk,
                                   cycle_t now) {
  PolyphaseValidPolicy::on_fill(set, way, blk, now);
  live_.insert(idx(set, way));
}

void PolyphaseDirtyPolicy::on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty,
                                         cycle_t now) {
  PolyphaseValidPolicy::on_invalidate(set, way, dirty, now);
  live_.erase(idx(set, way));
}

std::uint64_t PolyphaseDirtyPolicy::refresh_due(std::uint32_t p, cycle_t t) {
  // Due dirty lines are refreshed; due clean lines are eagerly invalidated
  // so they never need refreshing again (their next use becomes a miss).
  std::uint64_t refreshed = 0;
  live_.for_each([&](std::uint32_t i) {
    if (tag_[i] != p) return;
    const std::uint32_t s = i / ways_;
    const std::uint32_t w = i % ways_;
    if (cache_.slot_dirty(s, w)) {
      ++refreshed;  // stays tagged p: due again next period
    } else {
      // Triggers on_invalidate back into this policy, keeping counts exact.
      cache_.invalidate_slot(s, w, t);
    }
  });
  return refreshed;
}

}  // namespace esteem::refrint
