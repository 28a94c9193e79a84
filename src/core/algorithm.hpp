// ESTEEM's energy-saving algorithm (paper Algorithm 1).
//
// Input: per-module histograms of hits at each LRU recency position over the
// last interval. Output: the number of ways to keep active in each module.
//
// Per module:
//   1. Non-LRU detection — count positions i where hits[i] < hits[i+1];
//      >= A/4 anomalies marks the module non-LRU.
//   2. Way selection — keep the smallest X such that the accumulated hits in
//      the X most-recent positions cover at least alpha of all hits, floored
//      at A_min; for non-LRU modules at most one way may be turned off
//      (floor max(A_min, A-1)) so reconfiguration aggressiveness is reduced
//      (§3.1).
//
// Note on the paper's pseudocode: isModuleNonLRU is never reset inside the
// module loop as printed; we reset it per module, which is clearly the
// intent (otherwise one non-LRU module would pin every later module).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.hpp"

namespace esteem::core {

struct AlgorithmConfig {
  double alpha = 0.97;
  std::uint32_t a_min = 3;
  /// Disable for the ablation bench: non-LRU modules are then treated like
  /// any other module.
  bool nonlru_guard = true;
};

struct ModuleDecision {
  std::uint32_t active_ways = 0;
  bool non_lru = false;
};

/// Detects the non-LRU hit pattern for a single module (Algorithm 1, l.4-13).
bool is_non_lru(std::span<const std::uint64_t> hits);

/// Way selection for a single module (Algorithm 1, l.14-26). `ways` is A.
ModuleDecision decide_module(std::span<const std::uint64_t> hits, std::uint32_t ways,
                             const AlgorithmConfig& cfg);

/// Full Algorithm 1 over all modules.
std::vector<ModuleDecision> esteem_decide(std::span<const Histogram> module_hits,
                                          std::uint32_t ways, const AlgorithmConfig& cfg);

}  // namespace esteem::core
