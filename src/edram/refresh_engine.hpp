// Glue between a refresh policy (energy-side refresh counting) and the bank
// timing model (performance-side refresh load).
#pragma once

#include <cstdint>

#include "cache/bank.hpp"
#include "common/types.hpp"
#include "edram/refresh_policy.hpp"

namespace esteem::edram {

class RefreshEngine {
 public:
  /// `banks` may be null for untimed (energy-only) simulations.
  RefreshEngine(RefreshPolicy& policy, cache::BankGroup* banks, double retention_cycles);

  /// Pumps the policy's refresh events up to `now`; accumulates N_R.
  void advance(cycle_t now);

  /// Re-derives the banks' refresh injection rate from the policy's current
  /// lines-per-period demand. Called at interval boundaries: the refresh
  /// load tracks the valid/active footprint at interval granularity.
  void sync_bank_load(cycle_t now);

  /// N_R since construction; callers measure a window as the difference
  /// of two readings.
  std::uint64_t total_refreshes() const noexcept { return total_; }

 private:
  RefreshPolicy& policy_;
  cache::BankGroup* banks_;
  double retention_cycles_;
  std::uint64_t total_ = 0;
};

}  // namespace esteem::edram
