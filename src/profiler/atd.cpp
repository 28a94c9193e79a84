#include "profiler/atd.hpp"

namespace esteem::profiler {

ModuleProfiler::ModuleProfiler(const cache::ModuleMap& modules, std::uint32_t ways,
                               const LeaderSets& leaders)
    : modules_(modules), leaders_(leaders), ways_(ways) {
  hist_.reserve(modules.modules());
  for (std::uint32_t m = 0; m < modules.modules(); ++m) hist_.emplace_back(ways_);
}

void ModuleProfiler::record_hit(std::uint32_t set, std::uint32_t lru_pos) {
  if (!leaders_.is_leader(set)) return;
  hist_[modules_.module_of(set)].add(lru_pos);
}

void ModuleProfiler::clear() {
  for (auto& h : hist_) h.clear();
}

}  // namespace esteem::profiler
