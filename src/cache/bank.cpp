#include "cache/bank.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace esteem::cache {

BankTimer::BankTimer(double refresh_occupancy_cycles,
                     std::uint32_t access_occupancy_cycles, double queue_pressure)
    : refresh_occ_(refresh_occupancy_cycles),
      refresh_occ_eff_(refresh_occupancy_cycles),
      access_occ_(access_occupancy_cycles),
      queue_pressure_(queue_pressure) {
  if (!(refresh_occupancy_cycles >= 0.0) || access_occupancy_cycles == 0) {
    throw std::invalid_argument(
        "BankTimer: refresh occupancy must be >= 0 and access occupancy >= 1");
  }
  if (queue_pressure < 0.0) {
    throw std::invalid_argument("BankTimer: queue pressure must be >= 0");
  }
}

void BankTimer::update_delay() noexcept {
  delay_ = 0.0;
  if (queue_pressure_ <= 0.0) return;
  const double r = refresh_share();
  const double rho = std::min(0.97, r + demand_share_);
  if (rho <= 0.0) return;
  // Utilization-weighted mean service time of the contending traffic.
  const double s_mix = (r * refresh_occ_eff_ + demand_share_ * access_occ_) / rho;
  delay_ = queue_pressure_ * 0.5 * s_mix * rho / (1.0 - rho);
}

void BankTimer::set_refresh_spacing(double cycles_between_refreshes, cycle_t now) {
  drain_refreshes(static_cast<double>(now));
  spacing_ = cycles_between_refreshes;
  if (!(spacing_ > 0.0)) {
    throw std::invalid_argument("BankTimer: refresh spacing must be positive");
  }
  refresh_occ_eff_ = std::min(refresh_occ_, kMaxRefreshShare * spacing_);
  next_slot_ = std::isinf(spacing_) ? kInf : static_cast<double>(now) + spacing_;
  update_delay();
}

void BankTimer::drain_refreshes(double now) {
  if (next_slot_ > now) return;
  // Slots t_1..t_n <= now with t_j = next_slot_ + (j-1)*spacing_. Serving
  // them in order gives the closed form below (each slot starts at
  // max(previous finish, its own time) and occupies refresh_occ_ cycles).
  const double n = std::floor((now - next_slot_) / spacing_) + 1.0;
  const double t1 = next_slot_;
  const double tn = t1 + (n - 1.0) * spacing_;
  free_at_ = std::max({free_at_ + n * refresh_occ_eff_, t1 + n * refresh_occ_eff_,
                       tn + refresh_occ_eff_});
  next_slot_ = t1 + n * spacing_;
  slots_ += static_cast<std::uint64_t>(n);
}

cycle_t BankTimer::access(cycle_t now) {
  const double t = static_cast<double>(now);
  drain_refreshes(t);
  free_at_ = std::min(free_at_, t + kMaxBacklogCycles);  // bounded saturation
  const double wait = std::max(0.0, free_at_ - t) + delay_;
  free_at_ = std::max(free_at_, t) + access_occ_;

  // Roll the demand-utilization window. The new share first applies to the
  // next access: this one's wait is already taken.
  if (t - window_start_ >= kDemandWindowCycles) {
    demand_share_ = std::min(1.0, window_busy_ / (t - window_start_));
    window_start_ = t;
    window_busy_ = 0.0;
    update_delay();
  }
  window_busy_ += access_occ_;
  return static_cast<cycle_t>(wait);
}

BankGroup::BankGroup(std::uint32_t banks, std::uint32_t sets,
                     double refresh_occupancy_cycles,
                     std::uint32_t access_occupancy_cycles, double queue_pressure) {
  if (banks == 0 || (banks & (banks - 1)) != 0) {
    throw std::invalid_argument("BankGroup: bank count must be a power of two");
  }
  if (sets < banks) throw std::invalid_argument("BankGroup: more banks than sets");
  timers_.reserve(banks);
  for (std::uint32_t b = 0; b < banks; ++b) {
    timers_.emplace_back(refresh_occupancy_cycles, access_occupancy_cycles,
                         queue_pressure);
  }
}

void BankGroup::set_refresh_load(double lines_per_period, double period_cycles,
                                 cycle_t now) {
  const double per_bank = lines_per_period / static_cast<double>(timers_.size());
  const double spacing = per_bank > 0.0
                             ? period_cycles / per_bank
                             : std::numeric_limits<double>::infinity();
  for (auto& t : timers_) t.set_refresh_spacing(spacing, now);
}

cycle_t BankGroup::access(std::uint32_t set, cycle_t now) {
  return timers_[bank_of(set)].access(now);
}

std::uint64_t BankGroup::total_refresh_slots() const noexcept {
  std::uint64_t total = 0;
  for (const auto& t : timers_) total += t.refresh_slots();
  return total;
}

}  // namespace esteem::cache
