// The one rule that fires ESTEEM's interval boundaries, shared by
// cpu::System::run and sampling::run_sampled. The wall clock is the slowest
// core's position (the minimum core cycle); a boundary fires once every
// core has passed it. The clock is disarmed (kNever) until arm() at the
// start of measurement, so warm-up never ticks.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "common/types.hpp"
#include "cpu/core_model.hpp"
#include "cpu/memory_system.hpp"

namespace esteem::cpu {

struct IntervalClock {
  static constexpr cycle_t kNever = std::numeric_limits<cycle_t>::max();

  MemorySystem& mem;
  std::vector<Core>& cores;
  cycle_t interval;
  cycle_t next = kNever;

  void arm(cycle_t start) noexcept { next = start + interval; }

  cycle_t wall() const noexcept {
    cycle_t w = cores[0].cycles();
    for (std::size_t c = 1; c < cores.size(); ++c) w = std::min(w, cores[c].cycles());
    return w;
  }

  /// Fires every boundary the wall clock has passed. Called once per
  /// simulated reference, hence defined here to be inlined.
  void pump() {
    if (next == kNever) return;
    const cycle_t w = wall();
    while (w >= next) {
      mem.tick_interval(next);
      next += interval;
    }
  }
};

}  // namespace esteem::cpu
