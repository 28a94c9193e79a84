// Hierarchical counter registry: the process-wide name space every subsystem
// publishes instrumentation into (`l2.demand_misses`, `memo.hits`,
// `sweep.tasks`, ...). Names are dotted paths; the registry itself is flat —
// hierarchy is a naming convention consumed by sinks (snapshot() returns
// name-sorted samples, so children follow their parent).
//
// Three metric kinds:
//   Counter   — monotonically increasing uint64 (add).
//   Gauge     — last-write-wins double (set).
//   Histogram — power-of-two bucketed uint64 samples (observe), plus exact
//               count and sum.
//
// Concurrency: one mutex over a name-keyed map. A run publishes about 30
// updates, and only with telemetry on, so the lock is never contended.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace esteem::telemetry {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// Converts the kind to its lowercase name ("counter" | "gauge" | "histogram").
const char* to_string(MetricKind kind) noexcept;

/// One metric as returned by snapshot().
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  /// Counter: total. Gauge: last set value. Histogram: sum of samples.
  double value = 0.0;
  /// Histogram only: number of samples.
  std::uint64_t count = 0;
  /// Histogram only: bucket b counts samples with bit_width(v) == b
  /// (i.e. 2^(b-1) <= v < 2^b; bucket 0 is v == 0). Trailing empty buckets
  /// are trimmed.
  std::vector<std::uint64_t> buckets;
};

class CounterRegistry {
 public:
  /// Histogram bucket count (values clamp into the last bucket).
  static constexpr std::size_t kHistBuckets = 40;

  /// Update a metric, creating it on first use. Using an existing name with
  /// another kind throws std::invalid_argument — `l2.miss` cannot be a
  /// counter in one subsystem and a gauge in another.
  void add(const std::string& name, std::uint64_t v = 1);
  void set(const std::string& name, double v);
  void observe(const std::string& name, std::uint64_t v);

  /// All metrics, sorted by name.
  std::vector<MetricSample> snapshot() const;

  /// Value of one metric (counter total / gauge value / histogram sum); 0
  /// when the name is unknown.
  double value(const std::string& name) const;

  std::size_t size() const;

  /// Zeroes every metric; names and kinds stay registered.
  void reset();

  /// snapshot() rendered as a JSON object keyed by metric name.
  std::string to_json() const;

 private:
  struct Metric {
    MetricKind kind = MetricKind::Counter;
    std::uint64_t total = 0;  ///< Counter total; histogram sum.
    double gauge = 0.0;
    std::uint64_t count = 0;  ///< Histogram sample count.
    std::array<std::uint64_t, kHistBuckets> buckets{};
  };

  /// The metric named `name`, created with `kind` if new. Caller holds mutex_.
  Metric& find_or_create(const std::string& name, MetricKind kind);
  static double value_of(const Metric& m) noexcept;

  mutable std::mutex mutex_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace esteem::telemetry
