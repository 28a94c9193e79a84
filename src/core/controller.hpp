// ESTEEM reconfiguration controller: runs Algorithm 1 at every interval
// boundary and applies the per-module way decisions to the cache.
//
// Leader sets never reconfigure (they are the embedded ATD); follower sets
// take the module's decision. When shrinking, clean lines are discarded and
// dirty lines written back (§5); the controller reports both so the memory
// system can charge writeback traffic and the energy model can charge
// E_chi * N_L for the power-gating transitions.
//
// Two optional extensions implement the paper's stated future work (§7.2):
// a cap on the per-interval way delta, and hysteresis that suppresses
// direction reversals within a configurable number of intervals.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "cache/module_map.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "core/algorithm.hpp"
#include "profiler/atd.hpp"
#include "profiler/leader_sets.hpp"

namespace esteem::core {

struct ReconfigResult {
  std::uint64_t transitions = 0;     ///< N_L: blocks power-gated on or off.
  std::uint64_t writebacks = 0;      ///< Dirty lines flushed to memory.
  std::uint64_t clean_discards = 0;  ///< Clean lines simply invalidated.
};

class EsteemController {
 public:
  EsteemController(cache::SetAssocCache& l2, const cache::ModuleMap& modules,
                   const profiler::LeaderSets& leaders, profiler::ModuleProfiler& profiler,
                   const EsteemParams& params);

  /// Executes Algorithm 1 on the last interval's histograms, applies the
  /// decisions, and clears the histograms for the next interval.
  /// `on_writeback` is invoked once per flushed dirty line.
  ReconfigResult run_interval(cycle_t now,
                              const std::function<void(block_t)>& on_writeback);

  /// F_A: active fraction of the cache, counting leader sets as fully on.
  double active_fraction() const noexcept;

  /// Current per-module decision (followers' active way count).
  const std::vector<std::uint32_t>& module_active_ways() const noexcept {
    return active_;
  }

  std::uint64_t intervals_run() const noexcept { return intervals_; }

 private:
  std::uint32_t clamp_extensions(std::uint32_t module, std::uint32_t target);

  cache::SetAssocCache& l2_;
  const cache::ModuleMap& modules_;
  const profiler::LeaderSets& leaders_;
  profiler::ModuleProfiler& profiler_;
  EsteemParams params_;
  AlgorithmConfig algo_cfg_;

  std::vector<std::uint32_t> active_;         // per-module follower way count
  std::vector<std::int8_t> last_direction_;   // -1 shrink, +1 grow, 0 none
  std::vector<std::uint64_t> last_change_;    // interval index of last change
  std::uint64_t intervals_ = 0;

  // Exponentially smoothed profiling state (history_weight > 0); decisions
  // are made from these rather than the raw last-interval histograms.
  std::vector<std::vector<double>> smoothed_hits_;   // [module][lru position]

  // Shrink debouncing (shrink_confirm_intervals > 1).
  std::vector<std::uint32_t> shrink_streak_;         // consecutive shrink asks
};

}  // namespace esteem::core
