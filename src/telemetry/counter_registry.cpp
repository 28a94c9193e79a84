#include "telemetry/counter_registry.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace esteem::telemetry {

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

CounterRegistry::Metric& CounterRegistry::find_or_create(const std::string& name,
                                                         MetricKind kind) {
  if (name.empty()) throw std::invalid_argument("telemetry: empty metric name");
  const auto [it, created] = metrics_.try_emplace(name);
  if (created) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument("telemetry: metric '" + name + "' already registered as " +
                                to_string(it->second.kind) + ", requested " +
                                to_string(kind));
  }
  return it->second;
}

void CounterRegistry::add(const std::string& name, std::uint64_t v) {
  const std::lock_guard<std::mutex> lock(mutex_);
  find_or_create(name, MetricKind::Counter).total += v;
}

void CounterRegistry::set(const std::string& name, double v) {
  const std::lock_guard<std::mutex> lock(mutex_);
  find_or_create(name, MetricKind::Gauge).gauge = v;
}

void CounterRegistry::observe(const std::string& name, std::uint64_t v) {
  const std::size_t width = static_cast<std::size_t>(std::bit_width(v));
  const std::lock_guard<std::mutex> lock(mutex_);
  Metric& m = find_or_create(name, MetricKind::Histogram);
  ++m.buckets[std::min(width, kHistBuckets - 1)];
  ++m.count;
  m.total += v;
}

double CounterRegistry::value_of(const Metric& m) noexcept {
  return m.kind == MetricKind::Gauge ? m.gauge : static_cast<double>(m.total);
}

std::vector<MetricSample> CounterRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> out;
  out.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) {
    MetricSample s;
    s.name = name;
    s.kind = m.kind;
    s.value = value_of(m);
    if (m.kind == MetricKind::Histogram) {
      s.count = m.count;
      s.buckets.assign(m.buckets.begin(), m.buckets.end());
      while (!s.buckets.empty() && s.buckets.back() == 0) s.buckets.pop_back();
    }
    out.push_back(std::move(s));
  }
  return out;
}

double CounterRegistry::value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : value_of(it->second);
}

std::size_t CounterRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.size();
}

void CounterRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, m] : metrics_) m = Metric{m.kind};
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
