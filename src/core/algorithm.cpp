#include "core/algorithm.hpp"

#include <algorithm>
#include <stdexcept>

namespace esteem::core {

bool is_non_lru(std::span<const std::uint64_t> hits) {
  if (hits.size() < 2) return false;
  std::uint32_t anomalies = 0;
  for (std::size_t i = 0; i + 1 < hits.size(); ++i) {
    if (hits[i] < hits[i + 1]) ++anomalies;
  }
  // nLRUAnomaly >= A/4 marks the module non-LRU.
  return anomalies * 4 >= hits.size();
}

ModuleDecision decide_module(std::span<const std::uint64_t> hits, std::uint32_t ways,
                             const AlgorithmConfig& cfg) {
  if (hits.size() != ways) {
    throw std::invalid_argument("decide_module: histogram size != associativity");
  }
  if (cfg.a_min == 0 || cfg.a_min > ways) {
    throw std::invalid_argument("decide_module: A_min out of range");
  }

  ModuleDecision d;
  d.non_lru = cfg.nonlru_guard && is_non_lru(hits);

  std::uint64_t total = 0;
  for (auto h : hits) total += h;

  std::uint64_t accumulated = 0;
  for (std::uint32_t i = 0; i < ways; ++i) {
    accumulated += hits[i];
    // Integer-exact form of: accumulated >= alpha * total.
    if (static_cast<double>(accumulated) >= cfg.alpha * static_cast<double>(total)) {
      d.active_ways = std::max(cfg.a_min, i + 1);
      if (d.non_lru) d.active_ways = std::max({cfg.a_min, ways - 1, i + 1});
      return d;
    }
  }
  // Unreachable when alpha <= 1 (accumulated == total at i = A-1), but keep
  // a safe fallback for alpha == 1 with total == 0 edge handling above.
  d.active_ways = ways;
  return d;
}

std::vector<ModuleDecision> esteem_decide(std::span<const Histogram> module_hits,
                                          std::uint32_t ways, const AlgorithmConfig& cfg) {
  std::vector<ModuleDecision> out;
  out.reserve(module_hits.size());
  for (const Histogram& h : module_hits) {
    out.push_back(decide_module(h.counts(), ways, cfg));
  }
  return out;
}

}  // namespace esteem::core
