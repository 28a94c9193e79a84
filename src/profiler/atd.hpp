// Per-module LRU-position hit histograms — the dynamic profiling data that
// drives ESTEEM's Algorithm 1 (nL2Hit[0:M-1][0:A-1] in the paper).
//
// The auxiliary tag directory (ATD) is embedded in the main tag directory:
// leader sets keep full associativity forever, so their hit positions are
// exactly what a standalone ATD with the same replacement policy would see.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/module_map.hpp"
#include "common/stats.hpp"
#include "profiler/leader_sets.hpp"

namespace esteem::profiler {

class ModuleProfiler {
 public:
  ModuleProfiler(const cache::ModuleMap& modules, std::uint32_t ways,
                 const LeaderSets& leaders);

  /// Records a hit observed at `lru_pos` in `set`; ignored unless the set is
  /// a leader. Statistics from a leader count toward its module (§3.2).
  void record_hit(std::uint32_t set, std::uint32_t lru_pos);

  /// nL2Hit[m][:] for the current interval.
  const Histogram& hits(std::uint32_t module) const { return hist_[module]; }
  std::uint32_t modules() const noexcept { return static_cast<std::uint32_t>(hist_.size()); }
  std::uint32_t ways() const noexcept { return ways_; }

  /// Clears all histograms (called at each interval boundary).
  void clear();

 private:
  const cache::ModuleMap& modules_;
  const LeaderSets& leaders_;
  std::uint32_t ways_;
  std::vector<Histogram> hist_;
};

}  // namespace esteem::profiler
