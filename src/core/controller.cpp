#include "core/controller.hpp"

#include <algorithm>

namespace esteem::core {

EsteemController::EsteemController(cache::SetAssocCache& l2,
                                   const cache::ModuleMap& modules,
                                   const profiler::LeaderSets& leaders,
                                   profiler::ModuleProfiler& profiler,
                                   const EsteemParams& params)
    : l2_(l2), modules_(modules), leaders_(leaders), profiler_(profiler), params_(params) {
  algo_cfg_.alpha = params.alpha;
  algo_cfg_.a_min = params.a_min;
  algo_cfg_.nonlru_guard = params.nonlru_guard;
  active_.assign(modules.modules(), l2.ways());
  last_direction_.assign(modules.modules(), 0);
  last_change_.assign(modules.modules(), 0);
  smoothed_hits_.assign(modules.modules(), std::vector<double>(l2.ways(), 0.0));
  shrink_streak_.assign(modules.modules(), 0);
}

std::uint32_t EsteemController::clamp_extensions(std::uint32_t module,
                                                 std::uint32_t target) {
  const std::uint32_t current = active_[module];

  if (params_.max_way_delta > 0) {
    const std::uint32_t lo =
        current > params_.max_way_delta ? current - params_.max_way_delta : 1;
    const std::uint32_t hi = current + params_.max_way_delta;
    target = std::clamp(target, lo, hi);
  }

  if (params_.hysteresis_intervals > 0 && target != current) {
    const std::int8_t dir = target > current ? std::int8_t{1} : std::int8_t{-1};
    const bool reversal = last_direction_[module] != 0 && dir != last_direction_[module];
    const bool recent =
        intervals_ - last_change_[module] <= params_.hysteresis_intervals;
    if (reversal && recent) return current;  // suppress thrashing
  }
  return target;
}

ReconfigResult EsteemController::run_interval(
    cycle_t now, const std::function<void(block_t)>& on_writeback) {
  ++intervals_;
  ReconfigResult result;

  // Fold this interval's leader samples into the exponentially smoothed
  // profiling state and decide from it (history_weight = 0 reduces to the
  // paper's last-interval-only decision).
  const double hw = params_.history_weight;
  std::vector<Histogram> hists;
  hists.reserve(modules_.modules());
  for (std::uint32_t m = 0; m < modules_.modules(); ++m) {
    Histogram h(l2_.ways());
    for (std::uint32_t i = 0; i < l2_.ways(); ++i) {
      smoothed_hits_[m][i] =
          smoothed_hits_[m][i] * hw + static_cast<double>(profiler_.hits(m).at(i));
      h.add(i, static_cast<std::uint64_t>(smoothed_hits_[m][i] + 0.5));
    }
    hists.push_back(std::move(h));
  }
  const std::vector<ModuleDecision> decisions =
      esteem_decide(hists, l2_.ways(), algo_cfg_);

  for (std::uint32_t m = 0; m < modules_.modules(); ++m) {
    std::uint32_t target = clamp_extensions(m, decisions[m].active_ways);
    const std::uint32_t current = active_[m];

    // Shrink debouncing: a shrink must be requested for K consecutive
    // intervals before lines are actually flushed. Growth stays immediate.
    if (target < current) {
      ++shrink_streak_[m];
      if (params_.shrink_confirm_intervals > 1 &&
          shrink_streak_[m] < params_.shrink_confirm_intervals) {
        target = current;
      }
    } else {
      shrink_streak_[m] = 0;
    }
    if (target == current) continue;

    last_direction_[m] = target > current ? std::int8_t{1} : std::int8_t{-1};
    last_change_[m] = intervals_;

    const std::uint32_t delta =
        target > current ? target - current : current - target;
    const std::uint32_t first = modules_.first_set(m);
    const std::uint32_t last = first + modules_.sets_per_module();
    for (std::uint32_t set = first; set < last; ++set) {
      if (leaders_.is_leader(set)) continue;  // leaders never reconfigure
      result.transitions += delta;            // N_L counts on->off and off->on
      if (target < current) {
        // The flush is stamped with the interval boundary's cycle so
        // refresh policies observing the invalidations see real timestamps.
        l2_.resize_set(set, target, now, [&](block_t blk, bool dirty) {
          if (dirty) {
            ++result.writebacks;
            if (on_writeback) on_writeback(blk);
          } else {
            ++result.clean_discards;
          }
        });
      } else {
        l2_.resize_set(set, target, now, nullptr);
      }
    }
    active_[m] = target;
  }

  profiler_.clear();
  return result;
}

double EsteemController::active_fraction() const noexcept {
  const double ways = l2_.ways();
  double active_way_sets = 0.0;
  for (std::uint32_t m = 0; m < modules_.modules(); ++m) {
    const double leaders = leaders_.leaders_in_module(m);
    const double followers = modules_.sets_per_module() - leaders;
    active_way_sets += leaders * ways + followers * active_[m];
  }
  const double total = static_cast<double>(l2_.sets()) * ways;
  return active_way_sets / total;
}

}  // namespace esteem::core
