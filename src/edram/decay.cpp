#include "edram/decay.hpp"

#include <stdexcept>

namespace esteem::edram {

CacheDecayPolicy::CacheDecayPolicy(cache::SetAssocCache& cache, cycle_t retention_cycles,
                                   cycle_t decay_interval_cycles,
                                   cycle_t check_period_cycles)
    : cache_(cache),
      ways_(cache.ways()),
      retention_(retention_cycles),
      decay_interval_(decay_interval_cycles),
      check_period_(check_period_cycles),
      next_check_(check_period_cycles),
      next_refresh_(retention_cycles),
      live_(static_cast<std::size_t>(cache.sets()) * cache.ways()) {
  if (retention_ == 0) throw std::invalid_argument("CacheDecay: zero retention");
  if (decay_interval_ == 0) throw std::invalid_argument("CacheDecay: zero decay interval");
  if (check_period_ == 0) throw std::invalid_argument("CacheDecay: zero check period");
  const std::size_t slots = static_cast<std::size_t>(cache.sets()) * ways_;
  powered_.assign(slots, 1);
  last_touch_.assign(slots, 0);
  powered_count_ = slots;
}

std::uint64_t CacheDecayPolicy::advance(cycle_t now) {
  std::uint64_t refreshed = 0;
  // Interleave decay checks and refresh boundaries in time order.
  while (next_check_ <= now || next_refresh_ <= now) {
    if (next_check_ <= std::min(now, next_refresh_)) {
      const cycle_t t = next_check_;
      live_.for_each([&](std::uint32_t i) {
        if (t - last_touch_[i] < decay_interval_) return;
        // The cache's eviction path fires on_invalidate back into us.
        const bool dirty = cache_.invalidate_slot(i / ways_, i % ways_, t);
        if (dirty) ++decay_writebacks_;
        powered_[i] = 0;
        --powered_count_;
        ++transitions_;  // gate off
        ++decayed_;
      });
      next_check_ += check_period_;
    } else {
      refreshed += valid_;
      next_refresh_ += retention_;
    }
  }
  return refreshed;
}

void CacheDecayPolicy::on_fill(std::uint32_t set, std::uint32_t way, block_t /*blk*/,
                               cycle_t now) {
  const std::uint32_t i = idx(set, way);
  if (!powered_[i]) {
    powered_[i] = 1;
    ++powered_count_;
    ++transitions_;  // gate back on for the new occupant
  }
  live_.insert(i);
  last_touch_[i] = now;
  ++valid_;
}

void CacheDecayPolicy::on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) {
  last_touch_[idx(set, way)] = now;
}

void CacheDecayPolicy::on_invalidate(std::uint32_t set, std::uint32_t way,
                                     bool /*dirty*/, cycle_t /*now*/) {
  live_.erase(idx(set, way));
  --valid_;
}

double CacheDecayPolicy::active_fraction() const noexcept {
  return static_cast<double>(powered_count_) / static_cast<double>(powered_.size());
}

}  // namespace esteem::edram
