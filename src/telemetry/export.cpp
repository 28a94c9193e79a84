#include "telemetry/export.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/json.hpp"

namespace esteem::telemetry {

namespace {

/// Snapshot lines have a fixed layout: exactly the members `keys`, in order.
bool has_keys(const json::Value& v, std::initializer_list<std::string_view> keys) {
  if (!v.is_object() || v.size() != keys.size()) return false;
  std::size_t i = 0;
  for (const std::string_view k : keys) {
    if (v.key(i++) != k) return false;
  }
  return true;
}

/// One metric line; json::Error when a member has the wrong kind.
MetricSample decode_metric_line(const json::Value& line) {
  MetricSample m;
  m.name = line.at("name").as_string();
  const std::string& kind = line.at("kind").as_string();
  if (kind == "counter" && has_keys(line, {"name", "kind", "total"})) {
    m.kind = MetricKind::Counter;
    m.raw = line.item(2).as_u64();
    m.value = static_cast<double>(m.raw);
  } else if (kind == "gauge" && has_keys(line, {"name", "kind", "value"})) {
    m.kind = MetricKind::Gauge;
    m.value = line.item(2).as_f64();
  } else if (kind == "histogram" &&
             has_keys(line, {"name", "kind", "count", "sum", "buckets"})) {
    m.kind = MetricKind::Histogram;
    m.count = line.item(2).as_u64();
    m.raw = line.item(3).as_u64();
    const std::vector<json::Value>& buckets = line.item(4).as_array();
    if (buckets.size() > CounterRegistry::kHistBuckets) {
      throw json::Error("snapshot: too many histogram buckets");
    }
    for (const json::Value& b : buckets) m.buckets.push_back(b.as_u64());
    m.value = static_cast<double>(m.raw);
  } else {
    throw json::Error("snapshot: unknown metric line layout");
  }
  return m;
}

/// `esteem_` + the dotted name with every non-alphanumeric byte as '_'.
std::string om_name(const std::string& name) {
  std::string out = "esteem_";
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

/// Upper bound of histogram bucket b as its `le` label: bucket 0 holds
/// v == 0, bucket b holds bit_width(v) == b, i.e. v <= 2^b - 1.
std::string bucket_le(std::size_t b) {
  if (b == 0) return "0";
  return std::to_string((1ULL << b) - 1);
}

}  // namespace

Snapshot take_snapshot(const CounterRegistry& reg, std::int64_t t_ms,
                       const std::string& source) {
  Snapshot snap;
  snap.t_ms = t_ms;
  snap.source = json::scrub(source);
  snap.metrics = reg.snapshot();
  for (MetricSample& m : snap.metrics) m.name = json::scrub(m.name);
  return snap;
}

std::string encode_snapshot_jsonl(const Snapshot& snap) {
  std::ostringstream os;
  os << "{\"v\":1,\"kind\":\"snapshot\",\"t\":" << snap.t_ms << ",\"source\":\""
     << json::scrub(snap.source) << "\",\"n\":" << snap.metrics.size() << "}\n";
  for (const MetricSample& m : snap.metrics) {
    os << "{\"name\":\"" << json::scrub(m.name) << "\",\"kind\":\"" << to_string(m.kind) << '"';
    switch (m.kind) {
      case MetricKind::Counter:
        os << ",\"total\":" << m.raw;
        break;
      case MetricKind::Gauge:
        os << ",\"value\":" << json::number(m.value);
        break;
      case MetricKind::Histogram:
        os << ",\"count\":" << m.count << ",\"sum\":" << m.raw << ",\"buckets\":[";
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          os << (b ? "," : "") << m.buckets[b];
        }
        os << ']';
        break;
    }
    os << "}\n";
  }
  return os.str();
}

bool decode_snapshot_jsonl(const std::string& text, Snapshot& out) {
  Snapshot snap;
  std::uint64_t n = 0;
  bool saw_header = false;
  try {
    for (std::size_t begin = 0; begin < text.size();) {
      std::size_t end = text.find('\n', begin);
      if (end == std::string::npos) end = text.size();  // Tolerate a missing final newline.
      const json::Value line = json::parse(std::string_view(text).substr(begin, end - begin));
      begin = end + 1;
      if (saw_header) {
        snap.metrics.push_back(decode_metric_line(line));
        continue;
      }
      if (!has_keys(line, {"v", "kind", "t", "source", "n"}) || line.item(0).as_u64() != 1 ||
          line.item(1).as_string() != "snapshot") {
        return false;
      }
      snap.t_ms = line.item(2).as_i64();
      snap.source = line.item(3).as_string();
      n = line.item(4).as_u64();
      saw_header = true;
    }
  } catch (const json::Error&) {
    return false;
  }
  if (!saw_header || snap.metrics.size() != n) return false;
  out = std::move(snap);
  return true;
}

Snapshot merge_snapshots(const std::vector<Snapshot>& snaps) {
  // std::map keeps the merged set name-sorted, matching snapshot() order.
  std::map<std::string, MetricSample> merged;
  struct GaugeWin {
    std::int64_t t_ms;
    std::size_t idx;
  };
  std::map<std::string, GaugeWin> gauge_wins;

  Snapshot out;
  out.source = "merged";
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const Snapshot& snap = snaps[i];
    out.t_ms = std::max(out.t_ms, snap.t_ms);
    for (const MetricSample& m : snap.metrics) {
      auto [it, fresh] = merged.try_emplace(m.name, m);
      if (fresh) {
        if (m.kind == MetricKind::Gauge) gauge_wins[m.name] = {snap.t_ms, i};
        continue;
      }
      MetricSample& acc = it->second;
      if (acc.kind != m.kind) {
        throw std::invalid_argument("telemetry: merge kind mismatch for '" + m.name +
                                    "': " + to_string(acc.kind) + " vs " + to_string(m.kind));
      }
      switch (m.kind) {
        case MetricKind::Counter:
          acc.raw += m.raw;
          acc.value = static_cast<double>(acc.raw);
          break;
        case MetricKind::Gauge: {
          // Last write wins by snapshot timestamp; equal timestamps resolve
          // to the later merge operand (file order), never "whichever shard
          // the scan hit first".
          GaugeWin& win = gauge_wins[m.name];
          if (snap.t_ms >= win.t_ms) {
            win = {snap.t_ms, i};
            acc.value = m.value;
          }
          break;
        }
        case MetricKind::Histogram: {
          if (m.buckets.size() > acc.buckets.size()) acc.buckets.resize(m.buckets.size(), 0);
          for (std::size_t b = 0; b < m.buckets.size(); ++b) acc.buckets[b] += m.buckets[b];
          acc.count += m.count;
          acc.raw += m.raw;
          acc.value = static_cast<double>(acc.raw);
          break;
        }
      }
    }
  }
  out.metrics.reserve(merged.size());
  for (auto& [name, m] : merged) out.metrics.push_back(std::move(m));
  return out;
}

std::string to_openmetrics(const Snapshot& snap) {
  std::ostringstream os;
  for (const MetricSample& m : snap.metrics) {
    const std::string fam = om_name(m.name);
    os << "# TYPE " << fam << ' ' << to_string(m.kind) << '\n';
    switch (m.kind) {
      case MetricKind::Counter:
        os << fam << "_total " << m.raw << '\n';
        break;
      case MetricKind::Gauge:
        os << fam << ' ' << json::number(m.value) << '\n';
        break;
      case MetricKind::Histogram: {
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          cum += m.buckets[b];
          os << fam << "_bucket{le=\"" << bucket_le(b) << "\"} " << cum << '\n';
        }
        os << fam << "_bucket{le=\"+Inf\"} " << m.count << '\n';
        os << fam << "_sum " << m.raw << '\n';
        os << fam << "_count " << m.count << '\n';
        break;
      }
    }
  }
  os << "# EOF\n";
  return os.str();
}

namespace {

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head(s[0])) return false;
  for (const char c : s) {
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool parse_om_number(const std::string& s, double& v) {
  if (s.empty()) return false;
  char* end = nullptr;
  v = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

}  // namespace

bool check_openmetrics(const std::string& text, std::string& error) {
  auto fail = [&error](std::size_t line_no, const std::string& why) {
    error = "openmetrics: line " + std::to_string(line_no) + ": " + why;
    return false;
  };
  if (text.empty() || text.back() != '\n') {
    error = "openmetrics: exposition must end with a newline";
    return false;
  }

  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = text.find('\n', begin);
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  if (lines.empty() || lines.back() != "# EOF") {
    error = "openmetrics: missing trailing '# EOF'";
    return false;
  }
  lines.pop_back();

  // Per-family state machine. `stage` tracks the histogram sample order we
  // emit (finite buckets -> +Inf bucket -> _sum -> _count).
  std::string fam, fam_type;
  std::size_t fam_line = 0, fam_samples = 0;
  int stage = 0;
  double last_le = -1.0, last_cum = -1.0, inf_value = -1.0;
  std::vector<std::string> seen_families;

  auto close_family = [&](std::size_t line_no) {
    if (fam.empty()) return true;
    if (fam_samples == 0) return fail(fam_line, "family '" + fam + "' has no samples");
    if (fam_type == "histogram" && stage != 3) {
      return fail(line_no, "histogram '" + fam + "' missing +Inf bucket, _sum or _count");
    }
    return true;
  };

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t line_no = i + 1;
    const std::string& line = lines[i];
    if (line == "# EOF") return fail(line_no, "'# EOF' before the end of the exposition");
    if (line.compare(0, 7, "# TYPE ") == 0) {
      const std::size_t sp = line.find(' ', 7);
      if (sp == std::string::npos) return fail(line_no, "malformed TYPE line");
      const std::string name = line.substr(7, sp - 7);
      const std::string type = line.substr(sp + 1);
      if (!valid_metric_name(name)) return fail(line_no, "invalid family name '" + name + "'");
      if (type != "counter" && type != "gauge" && type != "histogram") {
        return fail(line_no, "unknown family type '" + type + "'");
      }
      if (std::find(seen_families.begin(), seen_families.end(), name) != seen_families.end()) {
        return fail(line_no, "family '" + name + "' declared twice");
      }
      if (!close_family(line_no)) return false;
      seen_families.push_back(name);
      fam = name;
      fam_type = type;
      fam_line = line_no;
      fam_samples = 0;
      stage = 0;
      last_le = last_cum = inf_value = -1.0;
      continue;
    }
    if (!line.empty() && line[0] == '#') return fail(line_no, "unexpected comment line");

    // Sample line: <name>[{le="..."}] <value>
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0) return fail(line_no, "malformed sample line");
    std::string name = line.substr(0, sp);
    const std::string value_str = line.substr(sp + 1);
    double value = 0.0;
    if (!parse_om_number(value_str, value)) {
      return fail(line_no, "unparseable value '" + value_str + "'");
    }
    if (fam.empty()) return fail(line_no, "sample before any TYPE line");

    std::string le;
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      static const std::string kLe = "{le=\"";
      if (name.compare(brace, kLe.size(), kLe) != 0 || name.size() < brace + kLe.size() + 2 ||
          name.compare(name.size() - 2, 2, "\"}") != 0) {
        return fail(line_no, "unsupported label set in '" + name + "'");
      }
      le = name.substr(brace + kLe.size(), name.size() - 2 - brace - kLe.size());
      name = name.substr(0, brace);
    }

    if (fam_type == "counter") {
      if (name != fam + "_total" || !le.empty()) {
        return fail(line_no, "counter sample must be '" + fam + "_total' without labels");
      }
      if (value < 0.0) return fail(line_no, "negative counter total");
    } else if (fam_type == "gauge") {
      if (name != fam || !le.empty()) {
        return fail(line_no, "gauge sample must be bare '" + fam + "'");
      }
    } else {  // histogram
      if (name == fam + "_bucket") {
        if (le.empty()) return fail(line_no, "histogram bucket without an le label");
        if (stage > 1) return fail(line_no, "bucket after _sum/_count");
        if (le == "+Inf") {
          if (value < last_cum) return fail(line_no, "+Inf bucket below the cumulative count");
          inf_value = value;
          stage = 1;
        } else {
          double bound = 0.0;
          if (stage == 1) return fail(line_no, "finite bucket after the +Inf bucket");
          if (!parse_om_number(le, bound)) return fail(line_no, "unparseable le '" + le + "'");
          if (bound <= last_le && last_cum >= 0.0) {
            return fail(line_no, "bucket le values must increase");
          }
          if (value < last_cum) return fail(line_no, "bucket counts must be cumulative");
          last_le = bound;
          last_cum = value;
        }
      } else if (name == fam + "_sum") {
        if (stage != 1) return fail(line_no, "_sum must follow the +Inf bucket");
        stage = 2;
      } else if (name == fam + "_count") {
        if (stage != 2) return fail(line_no, "_count must follow _sum");
        if (value != inf_value) return fail(line_no, "_count differs from the +Inf bucket");
        stage = 3;
      } else {
        return fail(line_no, "unknown histogram sample '" + name + "'");
      }
    }
    ++fam_samples;
  }
  if (!close_family(lines.size())) return false;
  if (seen_families.empty()) {
    error = "openmetrics: no metric families";
    return false;
  }
  error.clear();
  return true;
}

}  // namespace esteem::telemetry
