#include "telemetry/counter_registry.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace esteem::telemetry {

CounterRegistry::~CounterRegistry() {
  for (Shard& shard : shards_) {
    delete[] shard.cells.load(std::memory_order_acquire);
  }
}

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

void Counter::add(std::uint64_t v) noexcept {
  if (reg_ != nullptr) reg_->bump(slot_, v);
}

void Gauge::set(double v) noexcept {
  if (reg_ != nullptr) reg_->gauge_store(slot_, std::bit_cast<std::uint64_t>(v));
}

void Histogram::observe(std::uint64_t v) noexcept {
  if (reg_ == nullptr) return;
  const std::uint32_t width = v == 0 ? 0u : static_cast<std::uint32_t>(std::bit_width(v));
  const std::uint32_t bucket =
      std::min<std::uint32_t>(width, CounterRegistry::kHistBuckets - 1);
  reg_->bump(slot_ + bucket, 1);
  reg_->bump(slot_ + CounterRegistry::kHistBuckets, 1);      // count
  reg_->bump(slot_ + CounterRegistry::kHistBuckets + 1, v);  // sum
}

CounterRegistry::Cell* CounterRegistry::shard_cells(std::size_t shard) noexcept {
  Cell* cells = shards_[shard].cells.load(std::memory_order_acquire);
  if (cells != nullptr) return cells;
  // First touch of this shard: publish a zeroed fixed-capacity array. The
  // loser of the race frees its copy; cells are never reallocated after
  // publication, so writers can cache the pointer.
  Cell* fresh = new Cell[kSlotCapacity];
  if (shards_[shard].cells.compare_exchange_strong(cells, fresh,
                                                   std::memory_order_acq_rel)) {
    return fresh;
  }
  delete[] fresh;
  return cells;
}

std::size_t CounterRegistry::this_shard() noexcept {
  // Sequential per-thread ids striped over the shards: up to kShards workers
  // never collide; beyond that, collisions stay correct via the atomic adds.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id % kShards;
}

void CounterRegistry::bump(std::uint32_t slot, std::uint64_t v) noexcept {
  shard_cells(this_shard())[slot].v.fetch_add(v, std::memory_order_relaxed);
}

void CounterRegistry::gauge_store(std::uint32_t slot, std::uint64_t bits) noexcept {
  // Last-write-wins with a defined winner: each write takes a registry-wide
  // sequence number and lands (value, seq) in the caller's own shard, so
  // concurrent setters never contend on a cache line and the merge picks the
  // pair with the highest sequence. The value is published before the
  // sequence (release/acquire), so a reader that sees a sequence sees its
  // value.
  Cell* cells = shard_cells(this_shard());
  const std::uint64_t seq = gauge_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  cells[slot].v.store(bits, std::memory_order_relaxed);
  cells[slot + 1].v.store(seq, std::memory_order_release);
}

std::uint32_t CounterRegistry::register_metric(const std::string& name,
                                               MetricKind kind,
                                               std::uint32_t slots) {
  if (name.empty()) throw std::invalid_argument("telemetry: empty metric name");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(name);
  if (it != index_.end()) {
    const Meta& m = metas_[it->second];
    if (m.kind != kind) {
      throw std::invalid_argument("telemetry: metric '" + name + "' already registered as " +
                                  to_string(m.kind) + ", requested " + to_string(kind));
    }
    return m.slot;
  }
  const std::uint32_t slot = next_slot_.fetch_add(slots, std::memory_order_relaxed);
  if (slot + slots > kSlotCapacity) {
    throw std::length_error("telemetry: metric slot capacity exhausted");
  }
  index_.emplace(name, static_cast<std::uint32_t>(metas_.size()));
  metas_.push_back(Meta{name, kind, slot});
  return slot;
}

Counter CounterRegistry::counter(const std::string& name) {
  return Counter(this, register_metric(name, MetricKind::Counter, 1));
}

Gauge CounterRegistry::gauge(const std::string& name) {
  return Gauge(this, register_metric(name, MetricKind::Gauge, 2));
}

Histogram CounterRegistry::histogram(const std::string& name) {
  return Histogram(this, register_metric(name, MetricKind::Histogram, kHistBuckets + 2));
}

std::uint64_t CounterRegistry::merged_u64(std::uint32_t slot) const {
  std::uint64_t sum = 0;
  for (const Shard& shard : shards_) {
    const Cell* cells = shard.cells.load(std::memory_order_acquire);
    if (cells != nullptr) sum += cells[slot].v.load(std::memory_order_relaxed);
  }
  return sum;
}

double CounterRegistry::merged_value(const Meta& m) const {
  switch (m.kind) {
    case MetricKind::Counter:
      return static_cast<double>(merged_u64(m.slot));
    case MetricKind::Gauge: {
      // Scan every shard's (value, seq) pair and take the highest sequence:
      // sequences are unique (atomic increment), so the winner is the
      // literally-last set() regardless of which thread issued it.
      std::uint64_t best_bits = 0;
      std::uint64_t best_seq = 0;
      for (const Shard& shard : shards_) {
        const Cell* cells = shard.cells.load(std::memory_order_acquire);
        if (cells == nullptr) continue;
        const std::uint64_t seq = cells[m.slot + 1].v.load(std::memory_order_acquire);
        if (seq > best_seq) {
          best_seq = seq;
          best_bits = cells[m.slot].v.load(std::memory_order_relaxed);
        }
      }
      return std::bit_cast<double>(best_bits);
    }
    case MetricKind::Histogram:
      return static_cast<double>(merged_u64(m.slot + kHistBuckets + 1));
  }
  return 0.0;
}

std::vector<MetricSample> CounterRegistry::snapshot() const {
  std::vector<Meta> metas;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    metas = metas_;
  }
  std::sort(metas.begin(), metas.end(),
            [](const Meta& a, const Meta& b) { return a.name < b.name; });

  std::vector<MetricSample> out;
  out.reserve(metas.size());
  for (const Meta& m : metas) {
    MetricSample s;
    s.name = m.name;
    s.kind = m.kind;
    s.value = merged_value(m);
    if (m.kind == MetricKind::Histogram) {
      s.count = merged_u64(m.slot + kHistBuckets);
      s.buckets.resize(kHistBuckets);
      for (std::size_t b = 0; b < kHistBuckets; ++b) {
        s.buckets[b] = merged_u64(m.slot + static_cast<std::uint32_t>(b));
      }
      while (!s.buckets.empty() && s.buckets.back() == 0) s.buckets.pop_back();
    }
    out.push_back(std::move(s));
  }
  return out;
}

double CounterRegistry::value(const std::string& name) const {
  Meta meta;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(name);
    if (it == index_.end()) return 0.0;
    meta = metas_[it->second];
  }
  return merged_value(meta);
}

std::size_t CounterRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return metas_.size();
}

void CounterRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Shard& shard : shards_) {
    Cell* cells = shard.cells.load(std::memory_order_acquire);
    if (cells == nullptr) continue;
    for (std::uint32_t i = 0; i < kSlotCapacity; ++i) {
      cells[i].v.store(0, std::memory_order_relaxed);
    }
  }
}

std::string CounterRegistry::to_json() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const MetricSample& s : snapshot()) {
    if (!first) os << ',';
    first = false;
    os << '"' << json::escape(s.name) << "\":{\"kind\":\"" << to_string(s.kind) << '"';
    os << ",\"value\":" << json::number(s.value);
    if (s.kind == MetricKind::Histogram) {
      os << ",\"count\":" << s.count << ",\"buckets\":[";
      for (std::size_t b = 0; b < s.buckets.size(); ++b) {
        os << (b ? "," : "") << s.buckets[b];
      }
      os << ']';
    }
    os << '}';
  }
  os << '}';
  return os.str();
}

}  // namespace esteem::telemetry
