// Small statistics helpers used by the metrics/reporting layers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace esteem {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Geometric mean; precondition: all xs > 0. Returns 0 for an empty span.
/// The paper averages (weighted/fair) speedups geometrically (§6.4).
double geomean(std::span<const double> xs) noexcept;

/// Population standard deviation; returns 0 for fewer than 2 samples.
double stddev(std::span<const double> xs) noexcept;

double min_of(std::span<const double> xs) noexcept;
double max_of(std::span<const double> xs) noexcept;

/// Streaming accumulator for mean / min / max without storing samples.
class RunningStat {
 public:
  void add(double x) noexcept;
  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bucket integer histogram (e.g. hits per LRU stack position).
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::size_t buckets) : counts_(buckets, 0) {}

  void resize(std::size_t buckets) { counts_.assign(buckets, 0); }
  void add(std::size_t bucket, std::uint64_t n = 1) noexcept {
    if (bucket < counts_.size()) counts_[bucket] += n;
  }
  void clear() noexcept { for (auto& c : counts_) c = 0; }

  std::uint64_t at(std::size_t bucket) const noexcept {
    return bucket < counts_.size() ? counts_[bucket] : 0;
  }
  std::uint64_t total() const noexcept;
  std::span<const std::uint64_t> counts() const noexcept { return counts_; }

 private:
  std::vector<std::uint64_t> counts_;
};

}  // namespace esteem
