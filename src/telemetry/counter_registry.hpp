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
// Concurrency: registration (name -> id) takes a mutex; the hot path does
// not. Counter/histogram updates go to one of kShards per-worker shards
// (picked by a thread-local shard index) as relaxed atomic adds, so writers
// on different threads almost never touch the same cache line; snapshot()
// merges the shards. The merged value is exact regardless of interleaving —
// addition commutes — which is what the shard-merge determinism test pins.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace esteem::telemetry {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// Converts the kind to its lowercase name ("counter" | "gauge" | "histogram").
const char* to_string(MetricKind kind) noexcept;

class CounterRegistry;

/// Cheap value-type handle: register once, bump forever. A default-constructed
/// handle is inert (add/set/observe are no-ops), so call sites can hold one
/// unconditionally and only bind it when telemetry is enabled.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t v = 1) noexcept;
  bool bound() const noexcept { return reg_ != nullptr; }

 private:
  friend class CounterRegistry;
  Counter(CounterRegistry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  CounterRegistry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double v) noexcept;
  bool bound() const noexcept { return reg_ != nullptr; }

 private:
  friend class CounterRegistry;
  Gauge(CounterRegistry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  CounterRegistry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(std::uint64_t v) noexcept;
  bool bound() const noexcept { return reg_ != nullptr; }

 private:
  friend class CounterRegistry;
  Histogram(CounterRegistry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  CounterRegistry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// One merged metric as returned by snapshot().
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
  /// Number of per-worker shards counters/histograms are striped over.
  static constexpr std::size_t kShards = 16;
  /// Histogram bucket count (values clamp into the last bucket).
  static constexpr std::size_t kHistBuckets = 40;

  CounterRegistry() = default;
  ~CounterRegistry();
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Registers (or re-fetches) a metric. Re-registering an existing name with
  /// the same kind returns the same handle; a kind mismatch throws
  /// std::invalid_argument — `l2.miss` cannot be a counter in one subsystem
  /// and a gauge in another.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  /// All metrics merged across shards, sorted by name.
  std::vector<MetricSample> snapshot() const;

  /// Merged value of one metric (counter total / gauge value / histogram
  /// sum); 0 when the name is unknown.
  double value(const std::string& name) const;

  std::size_t size() const;

  /// Zeroes every cell; handles stay valid.
  void reset();

  /// snapshot() rendered as a JSON object keyed by metric name.
  std::string to_json() const;

 private:
  // Cell layout per metric:
  //   Counter:   1 slot  (uint64 sum, sharded)
  //   Gauge:     2 slots (double bits + write sequence, written to the
  //              caller's shard; the shard merge takes the pair with the
  //              highest sequence, pinning last-write-wins by timestamp)
  //   Histogram: kHistBuckets + 2 slots (buckets, count, sum; sharded)
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  struct Shard {
    // Fixed capacity so the hot path never observes a reallocation.
    std::atomic<Cell*> cells{nullptr};
  };
  struct Meta {
    std::string name;
    MetricKind kind;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kSlotCapacity = 4096;

  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  Cell* shard_cells(std::size_t shard) noexcept;
  static std::size_t this_shard() noexcept;
  std::uint32_t register_metric(const std::string& name, MetricKind kind,
                                std::uint32_t slots);
  std::uint64_t merged_u64(std::uint32_t slot) const;
  double merged_value(const Meta& m) const;

  void bump(std::uint32_t slot, std::uint64_t v) noexcept;
  void gauge_store(std::uint32_t slot, std::uint64_t bits) noexcept;

  mutable std::mutex mutex_;  ///< Guards registration and name lookup only.
  std::unordered_map<std::string, std::uint32_t> index_;  // name -> metas_ idx
  std::vector<Meta> metas_;
  std::atomic<std::uint32_t> next_slot_{0};
  /// Registry-wide gauge write order: each set() takes the next sequence
  /// number, so concurrent writers from different shards have a defined
  /// winner at merge time (the literally-last write).
  std::atomic<std::uint64_t> gauge_seq_{0};
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace esteem::telemetry
