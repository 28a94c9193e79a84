#include "edram/smart_refresh.hpp"

#include <numeric>
#include <stdexcept>

namespace esteem::edram {

SmartRefreshPolicy::SmartRefreshPolicy(std::uint32_t sets, std::uint32_t ways,
                                       cycle_t retention_cycles,
                                       cycle_t check_period_cycles)
    : ways_(ways),
      retention_(retention_cycles),
      check_period_(check_period_cycles),
      next_check_(check_period_cycles),
      live_(static_cast<std::size_t>(sets) * ways) {
  if (retention_ == 0) throw std::invalid_argument("SmartRefresh: zero retention");
  if (check_period_ == 0 || check_period_ > retention_) {
    throw std::invalid_argument("SmartRefresh: check period must be in [1, retention]");
  }
  last_touch_.assign(static_cast<std::size_t>(sets) * ways, 0);
  recent_.assign(std::max<cycle_t>(1, retention_ / check_period_), 0);
}

std::uint64_t SmartRefreshPolicy::advance(cycle_t now) {
  std::uint64_t refreshed = 0;
  while (next_check_ <= now) {
    // Refresh every valid line whose age will exceed the retention period
    // before the next check; refreshing resets its age clock.
    std::uint64_t this_check = 0;
    const cycle_t t = next_check_;
    live_.for_each([&](std::uint32_t i) {
      if (t + check_period_ - last_touch_[i] > retention_) {
        last_touch_[i] = t;
        ++this_check;
      }
    });
    refreshed += this_check;
    recent_[recent_pos_] = this_check;
    recent_pos_ = (recent_pos_ + 1) % recent_.size();
    next_check_ += check_period_;
  }
  return refreshed;
}

double SmartRefreshPolicy::refresh_lines_per_period() const {
  return static_cast<double>(
      std::accumulate(recent_.begin(), recent_.end(), std::uint64_t{0}));
}

void SmartRefreshPolicy::on_fill(std::uint32_t set, std::uint32_t way, block_t /*blk*/,
                                 cycle_t now) {
  const std::uint32_t i = idx(set, way);
  live_.insert(i);
  last_touch_[i] = now;
  ++valid_;
}

void SmartRefreshPolicy::on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) {
  last_touch_[idx(set, way)] = now;
}

void SmartRefreshPolicy::on_invalidate(std::uint32_t set, std::uint32_t way,
                                       bool /*dirty*/, cycle_t /*now*/) {
  live_.erase(idx(set, way));
  --valid_;
}

}  // namespace esteem::edram
