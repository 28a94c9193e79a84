#include "common/config_io.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace esteem {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

double parse_double(const std::string& v, const std::string& key) {
  std::size_t used = 0;
  double d = 0.0;
  try {
    d = std::stod(v, &used);
  } catch (const std::exception&) {  // stod throws bare invalid_argument/out_of_range
    used = 0;
  }
  if (used != v.size()) {
    throw std::invalid_argument("config: bad number '" + v + "' for " + key);
  }
  return d;
}

std::uint64_t parse_u64(const std::string& v, const std::string& key) {
  std::size_t used = 0;
  unsigned long long u = 0;
  try {
    u = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size()) {
    throw std::invalid_argument("config: bad integer '" + v + "' for " + key);
  }
  return u;
}

bool parse_bool(const std::string& v, const std::string& key) {
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw std::invalid_argument("config: bad boolean for " + key);
}

std::string show(double v) {
  std::ostringstream os;
  os << v;  // default stream formatting, matching the historical save format
  return os.str();
}

std::string show(std::uint64_t v) { return std::to_string(v); }
std::string show(bool v) { return v ? "true" : "false"; }

/// Schema-entry builders: each pairs a parse-and-assign setter with the
/// matching serializer so load/save/doc stay in lockstep per key.
ConfigKeySpec int_key(std::string section, std::string key, std::string doc,
                      std::function<void(SystemConfig&, std::uint64_t)> set,
                      std::function<std::uint64_t(const SystemConfig&)> get) {
  ConfigKeySpec spec;
  spec.section = std::move(section);
  spec.key = std::move(key);
  spec.type = "int";
  spec.doc = std::move(doc);
  spec.set = [set](SystemConfig& c, const std::string& v, const std::string& k) {
    set(c, parse_u64(v, k));
  };
  spec.get = [get](const SystemConfig& c) { return show(get(c)); };
  return spec;
}

ConfigKeySpec float_key(std::string section, std::string key, std::string doc,
                        std::function<void(SystemConfig&, double)> set,
                        std::function<double(const SystemConfig&)> get) {
  ConfigKeySpec spec;
  spec.section = std::move(section);
  spec.key = std::move(key);
  spec.type = "float";
  spec.doc = std::move(doc);
  spec.set = [set](SystemConfig& c, const std::string& v, const std::string& k) {
    set(c, parse_double(v, k));
  };
  spec.get = [get](const SystemConfig& c) { return show(get(c)); };
  return spec;
}

ConfigKeySpec bool_key(std::string section, std::string key, std::string doc,
                       std::function<void(SystemConfig&, bool)> set,
                       std::function<bool(const SystemConfig&)> get) {
  ConfigKeySpec spec;
  spec.section = std::move(section);
  spec.key = std::move(key);
  spec.type = "bool";
  spec.doc = std::move(doc);
  spec.set = [set](SystemConfig& c, const std::string& v, const std::string& k) {
    set(c, parse_bool(v, k));
  };
  spec.get = [get](const SystemConfig& c) { return show(get(c)); };
  return spec;
}

ConfigKeySpec str_key(std::string section, std::string key, std::string doc,
                      std::function<void(SystemConfig&, std::string)> set,
                      std::function<std::string(const SystemConfig&)> get) {
  ConfigKeySpec spec;
  spec.section = std::move(section);
  spec.key = std::move(key);
  spec.type = "str";
  spec.doc = std::move(doc);
  // Values arrive trimmed from the INI parser; no further validation — an
  // empty value is the documented "off" for every string key.
  spec.set = [set](SystemConfig& c, const std::string& v, const std::string&) { set(c, v); };
  spec.get = [get](const SystemConfig& c) { return get(c); };
  return spec;
}

std::vector<ConfigKeySpec> build_schema() {
  std::vector<ConfigKeySpec> s;
  s.push_back(int_key("system", "ncores", "Number of cores (1 or 2 in the paper)",
                      [](SystemConfig& c, std::uint64_t v) { c.ncores = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.ncores; }));
  s.push_back(float_key("system", "freq_ghz", "Core clock frequency in GHz",
                        [](SystemConfig& c, double v) { c.freq_ghz = v; },
                        [](const SystemConfig& c) { return c.freq_ghz; }));

  s.push_back(int_key("l1", "size_kb", "Private L1 size per core in KB",
                      [](SystemConfig& c, std::uint64_t v) { c.l1.geom.size_bytes = v * 1024; },
                      [](const SystemConfig& c) { return c.l1.geom.size_bytes / 1024; }));
  s.push_back(int_key("l1", "ways", "L1 associativity",
                      [](SystemConfig& c, std::uint64_t v) { c.l1.geom.ways = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.l1.geom.ways; }));
  s.push_back(int_key("l1", "latency", "L1 hit latency in cycles",
                      [](SystemConfig& c, std::uint64_t v) { c.l1.latency_cycles = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.l1.latency_cycles; }));

  s.push_back(int_key("l2", "size_kb", "Shared eDRAM L2 size in KB",
                      [](SystemConfig& c, std::uint64_t v) { c.l2.geom.size_bytes = v * 1024; },
                      [](const SystemConfig& c) { return c.l2.geom.size_bytes / 1024; }));
  s.push_back(int_key("l2", "ways", "L2 associativity",
                      [](SystemConfig& c, std::uint64_t v) { c.l2.geom.ways = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.l2.geom.ways; }));
  s.push_back(int_key("l2", "line_bytes", "Cache line size in bytes (applies to L1 and L2)",
                      [](SystemConfig& c, std::uint64_t v) {
                        c.l2.geom.line_bytes = static_cast<std::uint32_t>(v);
                        c.l1.geom.line_bytes = c.l2.geom.line_bytes;
                      },
                      [](const SystemConfig& c) -> std::uint64_t { return c.l2.geom.line_bytes; }));
  s.push_back(int_key("l2", "latency", "L2 hit latency in cycles",
                      [](SystemConfig& c, std::uint64_t v) { c.l2.latency_cycles = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.l2.latency_cycles; }));
  s.push_back(int_key("l2", "banks", "Number of L2 banks (power of two)",
                      [](SystemConfig& c, std::uint64_t v) { c.l2.banks = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.l2.banks; }));
  s.push_back(int_key("l2", "access_occupancy", "Cycles a demand access occupies its bank",
                      [](SystemConfig& c, std::uint64_t v) { c.l2.access_occupancy_cycles = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.l2.access_occupancy_cycles; }));
  s.push_back(float_key("l2", "refresh_occupancy",
                        "Effective bank-interference cycles per refreshed line (calibration knob)",
                        [](SystemConfig& c, double v) { c.l2.refresh_occupancy_cycles = v; },
                        [](const SystemConfig& c) { return c.l2.refresh_occupancy_cycles; }));
  s.push_back(float_key("l2", "queue_pressure",
                        "Scale of the analytic bank queueing-delay term (0 disables)",
                        [](SystemConfig& c, double v) { c.l2.queue_pressure = v; },
                        [](const SystemConfig& c) { return c.l2.queue_pressure; }));

  s.push_back(float_key("edram", "retention_us",
                        "eDRAM retention period in microseconds (50 default, 40 in par. 7.3)",
                        [](SystemConfig& c, double v) { c.edram.retention_us = v; },
                        [](const SystemConfig& c) { return c.edram.retention_us; }));
  s.push_back(int_key("edram", "rpv_phases", "Refrint polyphase count (paper evaluates 4)",
                      [](SystemConfig& c, std::uint64_t v) { c.edram.rpv_phases = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.edram.rpv_phases; }));
  s.push_back(int_key("edram", "ecc_correctable",
                      "Correctable bits per line for the ecc-extended technique",
                      [](SystemConfig& c, std::uint64_t v) { c.edram.ecc_correctable = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.edram.ecc_correctable; }));
  s.push_back(float_key("edram", "ecc_target_line_failure",
                        "Residual per-line failure-probability budget for ECC interval extension",
                        [](SystemConfig& c, double v) { c.edram.ecc_target_line_failure = v; },
                        [](const SystemConfig& c) { return c.edram.ecc_target_line_failure; }));

  s.push_back(int_key("mem", "latency", "Main-memory latency in cycles",
                      [](SystemConfig& c, std::uint64_t v) { c.mem.latency_cycles = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.mem.latency_cycles; }));
  s.push_back(float_key("mem", "bandwidth_gbps", "Main-memory bandwidth in GB/s",
                        [](SystemConfig& c, double v) { c.mem.bandwidth_gbps = v; },
                        [](const SystemConfig& c) { return c.mem.bandwidth_gbps; }));

  s.push_back(float_key("energy", "refresh_scale",
                        "Multiplier on per-line refresh energy (1 = Table 2 values)",
                        [](SystemConfig& c, double v) { c.energy.refresh_scale = v; },
                        [](const SystemConfig& c) { return c.energy.refresh_scale; }));
  s.push_back(float_key("energy", "dyn_scale",
                        "Multiplier on dynamic L2 access energy (1 = Table 2 values)",
                        [](SystemConfig& c, double v) { c.energy.dyn_scale = v; },
                        [](const SystemConfig& c) { return c.energy.dyn_scale; }));
  s.push_back(float_key("energy", "leak_scale",
                        "Multiplier on L2 leakage power (1 = Table 2 values)",
                        [](SystemConfig& c, double v) { c.energy.leak_scale = v; },
                        [](const SystemConfig& c) { return c.energy.leak_scale; }));

  s.push_back(float_key("esteem", "alpha", "Hit-coverage threshold of Algorithm 1",
                        [](SystemConfig& c, double v) { c.esteem.alpha = v; },
                        [](const SystemConfig& c) { return c.esteem.alpha; }));
  s.push_back(int_key("esteem", "a_min", "Minimum number of active ways per module",
                      [](SystemConfig& c, std::uint64_t v) { c.esteem.a_min = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.esteem.a_min; }));
  s.push_back(int_key("esteem", "modules", "Number of logical set modules M",
                      [](SystemConfig& c, std::uint64_t v) { c.esteem.modules = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.esteem.modules; }));
  s.push_back(int_key("esteem", "interval_cycles", "Reconfiguration interval in cycles",
                      [](SystemConfig& c, std::uint64_t v) { c.esteem.interval_cycles = v; },
                      [](const SystemConfig& c) { return c.esteem.interval_cycles; }));
  s.push_back(int_key("esteem", "sampling_ratio",
                      "Set-sampling ratio R_s (one leader set per R_s sets)",
                      [](SystemConfig& c, std::uint64_t v) { c.esteem.sampling_ratio = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.esteem.sampling_ratio; }));
  s.push_back(bool_key("esteem", "nonlru_guard",
                       "Limit turn-off to one way for modules with non-LRU hit patterns",
                       [](SystemConfig& c, bool v) { c.esteem.nonlru_guard = v; },
                       [](const SystemConfig& c) { return c.esteem.nonlru_guard; }));
  s.push_back(int_key("esteem", "min_leader_samples",
                      "Keep current configuration below this many leader-set samples (0 = off)",
                      [](SystemConfig& c, std::uint64_t v) { c.esteem.min_leader_samples = v; },
                      [](const SystemConfig& c) { return c.esteem.min_leader_samples; }));
  s.push_back(float_key("esteem", "history_weight",
                        "Exponential histogram smoothing across intervals (0 = paper-exact)",
                        [](SystemConfig& c, double v) { c.esteem.history_weight = v; },
                        [](const SystemConfig& c) { return c.esteem.history_weight; }));
  s.push_back(int_key("esteem", "max_way_delta",
                      "Cap on |delta active ways| per module per interval (0 = off)",
                      [](SystemConfig& c, std::uint64_t v) { c.esteem.max_way_delta = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.esteem.max_way_delta; }));
  s.push_back(int_key("esteem", "hysteresis_intervals",
                      "Suppress direction reversals within this many intervals (0 = off)",
                      [](SystemConfig& c, std::uint64_t v) { c.esteem.hysteresis_intervals = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.esteem.hysteresis_intervals; }));
  s.push_back(int_key("esteem", "shrink_confirm_intervals",
                      "Apply shrinks only after this many consecutive shrink requests (0/1 = immediate)",
                      [](SystemConfig& c, std::uint64_t v) { c.esteem.shrink_confirm_intervals = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.esteem.shrink_confirm_intervals; }));

  s.push_back(bool_key("faults", "enabled", "Enable retention-fault injection",
                       [](SystemConfig& c, bool v) { c.faults.enabled = v; },
                       [](const SystemConfig& c) { return c.faults.enabled; }));
  s.push_back(int_key("faults", "seed", "Seed of the deterministic weak-cell map",
                      [](SystemConfig& c, std::uint64_t v) { c.faults.seed = v; },
                      [](const SystemConfig& c) { return c.faults.seed; }));
  s.push_back(float_key("faults", "median_multiple",
                        "Median cell retention as a multiple of the nominal period",
                        [](SystemConfig& c, double v) { c.faults.median_multiple = v; },
                        [](const SystemConfig& c) { return c.faults.median_multiple; }));
  s.push_back(float_key("faults", "sigma", "Sigma of ln(cell retention)",
                        [](SystemConfig& c, double v) { c.faults.sigma = v; },
                        [](const SystemConfig& c) { return c.faults.sigma; }));
  s.push_back(int_key("faults", "correction_latency",
                      "Extra hit cycles when a line holds ECC-corrected bits",
                      [](SystemConfig& c, std::uint64_t v) { c.faults.correction_latency_cycles = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.faults.correction_latency_cycles; }));
  s.push_back(int_key("faults", "disable_threshold",
                      "Uncorrectable events on a line before it is disabled",
                      [](SystemConfig& c, std::uint64_t v) { c.faults.disable_threshold = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.faults.disable_threshold; }));
  s.push_back(int_key("faults", "max_tracked_extension",
                      "Largest refresh-interval extension the weak-cell map resolves",
                      [](SystemConfig& c, std::uint64_t v) { c.faults.max_tracked_extension = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.faults.max_tracked_extension; }));

  s.push_back(bool_key("sampling", "enabled",
                       "Enable SMARTS-style systematic sampling (estimates with confidence intervals)",
                       [](SystemConfig& c, bool v) { c.sampling.enabled = v; },
                       [](const SystemConfig& c) { return c.sampling.enabled; }));
  s.push_back(int_key("sampling", "window_instr",
                      "Detailed measured window length in instructions per core",
                      [](SystemConfig& c, std::uint64_t v) { c.sampling.window_instr = v; },
                      [](const SystemConfig& c) { return c.sampling.window_instr; }));
  s.push_back(int_key("sampling", "detail_warm_instr",
                      "Detailed but unmeasured run-up before each window (drains cold timing state)",
                      [](SystemConfig& c, std::uint64_t v) { c.sampling.detail_warm_instr = v; },
                      [](const SystemConfig& c) { return c.sampling.detail_warm_instr; }));
  s.push_back(int_key("sampling", "ff_warm_instr",
                      "Functional-warming instructions before each detailed run-up",
                      [](SystemConfig& c, std::uint64_t v) { c.sampling.ff_warm_instr = v; },
                      [](const SystemConfig& c) { return c.sampling.ff_warm_instr; }));
  s.push_back(int_key("sampling", "cold_warm_instr",
                      "Functional warming after the initial (cold-cache) fast-forward",
                      [](SystemConfig& c, std::uint64_t v) { c.sampling.cold_warm_instr = v; },
                      [](const SystemConfig& c) { return c.sampling.cold_warm_instr; }));
  s.push_back(int_key("sampling", "period_instr",
                      "Sampling period: one measured window per this many instructions per core",
                      [](SystemConfig& c, std::uint64_t v) { c.sampling.period_instr = v; },
                      [](const SystemConfig& c) { return c.sampling.period_instr; }));

  s.push_back(int_key("resilience", "run_deadline_ms",
                      "Wall-clock budget per run in ms; overruns become RunError{phase=deadline} (0 = off)",
                      [](SystemConfig& c, std::uint64_t v) { c.resilience.run_deadline_ms = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.resilience.run_deadline_ms; }));
  s.push_back(int_key("resilience", "max_retries",
                      "Extra attempts after a transient run failure (deadline overruns never retry)",
                      [](SystemConfig& c, std::uint64_t v) { c.resilience.max_retries = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.resilience.max_retries; }));
  s.push_back(int_key("resilience", "backoff_ms",
                      "Base retry delay in ms; doubles per attempt (capped at 2^16x)",
                      [](SystemConfig& c, std::uint64_t v) { c.resilience.backoff_ms = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.resilience.backoff_ms; }));
  s.push_back(int_key("resilience", "max_consecutive_errors",
                      "Circuit breaker: stop dispatching sweep rows after N consecutive run failures (0 = off)",
                      [](SystemConfig& c, std::uint64_t v) { c.resilience.max_consecutive_errors = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.resilience.max_consecutive_errors; }));

  s.push_back(int_key("service", "lease_ttl_ms",
                      "Sweep-service lease TTL in ms; an unrenewed row lease older than this may be re-leased",
                      [](SystemConfig& c, std::uint64_t v) { c.service.lease_ttl_ms = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.service.lease_ttl_ms; }));
  s.push_back(int_key("service", "heartbeat_ms",
                      "Worker heartbeat period in ms (lease renewal while a row runs)",
                      [](SystemConfig& c, std::uint64_t v) { c.service.heartbeat_ms = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.service.heartbeat_ms; }));
  s.push_back(int_key("service", "poll_ms",
                      "Idle poll period in ms for workers with nothing claimable and the waiting coordinator",
                      [](SystemConfig& c, std::uint64_t v) { c.service.poll_ms = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.service.poll_ms; }));
  s.push_back(str_key("service", "lock_mode",
                      "Lease-journal append serialization: append (O_APPEND atomicity) or lockfile (advisory lock for NFS/SMB)",
                      [](SystemConfig& c, std::string v) { c.service.lock_mode = std::move(v); },
                      [](const SystemConfig& c) { return c.service.lock_mode; }));

  s.push_back(int_key("observability", "flush_ms",
                      "Sidecar snapshot flush period in ms for service workers (0 = observability plane off)",
                      [](SystemConfig& c, std::uint64_t v) { c.observability.flush_ms = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.observability.flush_ms; }));
  s.push_back(int_key("observability", "events_max",
                      "Cap on structured event records a worker journals per run (overflow counted, not written)",
                      [](SystemConfig& c, std::uint64_t v) { c.observability.events_max = static_cast<std::uint32_t>(v); },
                      [](const SystemConfig& c) -> std::uint64_t { return c.observability.events_max; }));
  s.push_back(str_key("observability", "metrics_path",
                      "Coordinator writes the merged OpenMetrics exposition here after collect (empty = off)",
                      [](SystemConfig& c, std::string v) { c.observability.metrics_path = std::move(v); },
                      [](const SystemConfig& c) { return c.observability.metrics_path; }));
  return s;
}

const std::map<std::string, const ConfigKeySpec*>& schema_index() {
  static const std::map<std::string, const ConfigKeySpec*> kIndex = [] {
    std::map<std::string, const ConfigKeySpec*> idx;
    for (const ConfigKeySpec& spec : config_schema()) {
      idx.emplace(spec.section + "." + spec.key, &spec);
    }
    return idx;
  }();
  return kIndex;
}

}  // namespace

const std::vector<ConfigKeySpec>& config_schema() {
  static const std::vector<ConfigKeySpec> kSchema = build_schema();
  return kSchema;
}

bool config_section_is_execution_policy(const std::string& section) {
  return section == "resilience" || section == "service" ||
         section == "observability";
}

SystemConfig load_config(std::istream& in) {
  SystemConfig cfg;
  std::string section;
  std::string line;
  std::size_t line_no = 0;
  std::set<std::string> seen;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#' || t[0] == ';') continue;
    if (t.front() == '[') {
      if (t.back() != ']') {
        throw ConfigParseError(line_no, "",
                               "config: unterminated section header at line " +
                                   std::to_string(line_no));
      }
      section = trim(t.substr(1, t.size() - 2));
      continue;
    }
    const auto eq = t.find('=');
    if (eq == std::string::npos) {
      throw ConfigParseError(line_no, "",
                             "config: expected key=value at line " +
                                 std::to_string(line_no));
    }
    const std::string key = section + "." + trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    const auto it = schema_index().find(key);
    if (it == schema_index().end()) {
      throw ConfigParseError(line_no, key,
                             "config: unknown key '" + key + "' at line " +
                                 std::to_string(line_no));
    }
    if (!seen.insert(key).second) {
      throw ConfigParseError(line_no, key,
                             "config: duplicate key '" + key + "' at line " +
                                 std::to_string(line_no));
    }
    try {
      it->second->set(cfg, value, key);
    } catch (const std::exception& e) {
      // Value errors from the typed setters gain the line number here.
      throw ConfigParseError(line_no, key,
                             std::string(e.what()) + " at line " +
                                 std::to_string(line_no));
    }
  }
  cfg.validate();
  return cfg;
}

SystemConfig load_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("config: cannot open " + path);
  return load_config(in);
}

void save_config(const SystemConfig& cfg, std::ostream& out) {
  std::string section;
  for (const ConfigKeySpec& spec : config_schema()) {
    if (spec.section != section) {
      if (!section.empty()) out << "\n";
      section = spec.section;
      out << "[" << section << "]\n";
    }
    out << spec.key << " = " << spec.get(cfg) << "\n";
  }
}

void save_config_file(const SystemConfig& cfg, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::invalid_argument("config: cannot open " + path);
  save_config(cfg, out);
}

std::string config_doc_markdown(const SystemConfig& defaults) {
  std::ostringstream os;
  os << "# Configuration reference\n\n"
     << "<!-- Generated by `esteem_cli --dump-config-doc`; do not edit by hand.\n"
     << "     Regenerate with:  ./build/tools/esteem_cli --dump-config-doc > docs/CONFIG.md -->\n\n"
     << "Every key accepted by `esteem_cli --config FILE` (INI format; see\n"
     << "`--dump-config` for a ready-to-edit file). Unknown sections or keys are\n"
     << "rejected. Defaults below are the paper's single-core setup\n"
     << "(`SystemConfig::single_core()`); `SystemConfig::dual_core()` changes\n"
     << "`system.ncores` to 2, `l2.size_kb` to 8192, `mem.bandwidth_gbps` to 15\n"
     << "and `esteem.modules` to 16.\n\n"
     << "Each section is classified as **semantic** or **execution policy**:\n"
     << "semantic keys determine what a run computes, so they are part of the\n"
     << "memo-cache fingerprint and the sweep hash (changing one invalidates\n"
     << "cached outcomes and resume journals). Execution-policy keys only\n"
     << "govern how runs execute or are watched — deadlines, leases, telemetry\n"
     << "flushes — and are excluded from both: changing them never changes\n"
     << "result bytes. The `[sampling]` section is semantic even though it\n"
     << "only changes *accounting*: a sampled run reports estimates with\n"
     << "confidence intervals instead of exhaustive totals (see\n"
     << "[SAMPLING.md](SAMPLING.md)), which are different bytes.\n";
  std::string section;
  for (const ConfigKeySpec& spec : config_schema()) {
    if (spec.section != section) {
      section = spec.section;
      os << "\n## [" << section << "]\n\n"
         << (config_section_is_execution_policy(section)
                 ? "*Execution policy — excluded from memo fingerprints and "
                   "sweep hashes.*\n\n"
                 : "*Semantic — part of memo fingerprints and sweep hashes.*\n\n")
         << "| key | type | default | meaning |\n"
         << "|---|---|---|---|\n";
    }
    os << "| `" << spec.key << "` | " << spec.type << " | `" << spec.get(defaults)
       << "` | " << spec.doc << " |\n";
  }
  return os.str();
}

}  // namespace esteem
