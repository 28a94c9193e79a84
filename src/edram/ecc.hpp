// ECC-assisted refresh-period extension (paper §2 related work: Wilkerson
// et al. [45], Reviriego et al. [39]): adding multi-bit error correction to
// each line lets the cache refresh less often, tolerating the weak cells
// that lose charge first.
//
// Cell retention model: the nominal retention period (the one the paper
// refreshes at) is the guard-banded worst case; individual cell retention
// times are lognormally distributed well above it. Extending the refresh
// interval by factor k makes cells whose retention < k * nominal fail; a
// t-error-correcting code repairs up to t failed bits per line.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "edram/refresh_policy.hpp"

namespace esteem::edram {

/// Cell-retention distribution parameters (lognormal, relative to the
/// nominal guard-banded retention period).
struct CellRetentionModel {
  /// Median cell retention as a multiple of the nominal period. Guard bands
  /// put the weakest tail at ~1x, the median far higher.
  double median_multiple = 32.0;
  /// Sigma of ln(retention).
  double sigma = 0.35;
};

/// P(one cell's retention < extension * nominal).
double cell_failure_probability(double extension, const CellRetentionModel& model);

/// P(more than `correctable` of `bits_per_line` cells fail) — the residual
/// line-loss probability after ECC. Uses a numerically stable binomial tail.
double line_failure_probability(std::uint32_t bits_per_line, std::uint32_t correctable,
                                double extension, const CellRetentionModel& model);

/// Largest integer refresh-interval extension whose residual line-failure
/// probability stays below `target` for the given ECC strength. Returns 1
/// when no extension is safe.
std::uint32_t max_safe_extension(std::uint32_t bits_per_line, std::uint32_t correctable,
                                 double target, const CellRetentionModel& model,
                                 std::uint32_t limit = 16);

/// Storage overhead of a t-error-correcting BCH-style code on a line of
/// `data_bits` (approximate: t * ceil(log2(data_bits) + 1) check bits).
double ecc_storage_overhead(std::uint32_t data_bits, std::uint32_t correctable);

/// Periodic-valid refresh at an ECC-extended interval: refreshes valid
/// lines every `extension` nominal retention periods. The energy win is the
/// extension factor; the cost (ECC storage -> leakage/dynamic overhead) is
/// applied in the energy model by the caller via ecc_storage_overhead().
class EccRefreshPolicy final : public RefreshPolicy {
 public:
  EccRefreshPolicy(cycle_t nominal_retention_cycles, std::uint32_t extension);

  std::uint64_t advance(cycle_t now) override;
  double refresh_lines_per_period() const override;

  void on_fill(std::uint32_t, std::uint32_t, block_t, cycle_t) override { ++valid_; }
  void on_touch(std::uint32_t, std::uint32_t, cycle_t) override {}
  void on_invalidate(std::uint32_t, std::uint32_t, bool, cycle_t) override { --valid_; }
  bool wants_touch() const noexcept override { return false; }  // stateless hits

  std::uint32_t extension() const noexcept { return extension_; }

 private:
  cycle_t nominal_retention_;
  std::uint32_t extension_;
  cycle_t next_boundary_;
  std::uint64_t valid_ = 0;
};

}  // namespace esteem::edram
