#include "common/config_io.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>

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

template <class T>
constexpr bool kIsInt = std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t>;

template <class T>
std::string_view ini_type_of(const T&) {
  if constexpr (std::is_same_v<T, bool>) return "bool";
  else if constexpr (kIsInt<T>) return "int";
  else return "float";
}

template <class T>
std::string to_ini(const T& v, std::uint64_t unit) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (kIsInt<T>) {
    return std::to_string(v / unit);
  } else {
    std::ostringstream os;
    os << v;  // default stream formatting, matching the historical save format
    return os.str();
  }
}

template <class T>
void from_ini(const std::string& v, const std::string& key, std::uint64_t unit, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = parse_bool(v, key);
  } else if constexpr (kIsInt<T>) {
    out = static_cast<T>(parse_u64(v, key) * unit);
  } else {
    out = parse_double(v, key);
  }
}

template <class T>
void put(ByteWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) w.u8(v ? 1 : 0);
  else if constexpr (std::is_same_v<T, std::uint32_t>) w.u32(v);
  else if constexpr (std::is_same_v<T, std::uint64_t>) w.u64(v);
  else w.f64(v);
}

template <class A>
constexpr bool kRetired = std::is_same_v<A, RetiredSlot>;

// Field accessors hand out mutable references; the const paths only read
// through them.
SystemConfig& readable(const SystemConfig& c) { return const_cast<SystemConfig&>(c); }

std::string_view ini_type(const ConfigField& f, const SystemConfig& c) {
  return std::visit(
      [&](auto access) -> std::string_view {
        if constexpr (kRetired<decltype(access)>) return "";
        else return ini_type_of(access(readable(c)));
      },
      f.access);
}

std::string ini_value(const ConfigField& f, const SystemConfig& c) {
  const std::string v = std::visit(
      [&](auto access) -> std::string {
        if constexpr (kRetired<decltype(access)>) return "";
        else return to_ini(access(readable(c)), f.ini_unit);
      },
      f.access);
  return !f.zero_word.empty() && v == "0" ? std::string(f.zero_word) : v;
}

void set_ini_value(const ConfigField& f, SystemConfig& c, const std::string& v,
                   const std::string& key) {
  const bool word = !f.zero_word.empty() && v == f.zero_word;
  std::visit(
      [&](auto access) {
        if constexpr (!kRetired<decltype(access)>) {
          from_ini(word ? "0" : v, key, f.ini_unit, access(c));
        }
      },
      f.access);
  // A number that stores the word's value must be spelled as the word.
  if (!word && !f.zero_word.empty() && ini_value(f, c) == f.zero_word) {
    throw std::invalid_argument("config: " + key + " must be positive or '" +
                                std::string(f.zero_word) + "'");
  }
  if (f.ini_also) f.ini_also(c);
}

// The schema, in byte order: the memo key is this table's fields, so
// entries never move or leave — a field that leaves SystemConfig becomes a
// RetiredSlot.
constexpr ConfigField kFields[] = {
    {"system", "ncores", "Number of cores (1 or 2 in the paper)",
     [](SystemConfig& c) -> auto& { return c.ncores; }},
    {"system", "freq_ghz", "Core clock frequency in GHz",
     [](SystemConfig& c) -> auto& { return c.freq_ghz; }},

    {"l1", "size_kb", "Private L1 size per core in KB",
     [](SystemConfig& c) -> auto& { return c.l1.geom.size_bytes; }, 1024},
    {"l1", "ways", "L1 associativity (1 to 256)",
     [](SystemConfig& c) -> auto& { return c.l1.geom.ways; }},
    {"l1", "", "L1 line size in bytes; the INI sets it through l2.line_bytes",
     [](SystemConfig& c) -> auto& { return c.l1.geom.line_bytes; }},
    {"l1", "latency", "L1 hit latency in cycles",
     [](SystemConfig& c) -> auto& { return c.l1.latency_cycles; }},

    {"l2", "size_kb", "Shared eDRAM L2 size in KB",
     [](SystemConfig& c) -> auto& { return c.l2.geom.size_bytes; }, 1024},
    {"l2", "ways", "L2 associativity (1 to 256)",
     [](SystemConfig& c) -> auto& { return c.l2.geom.ways; }},
    {"l2", "line_bytes", "Cache line size in bytes (applies to L1 and L2)",
     [](SystemConfig& c) -> auto& { return c.l2.geom.line_bytes; }, 1,
     [](SystemConfig& c) { c.l1.geom.line_bytes = c.l2.geom.line_bytes; }},
    {"l2", "latency", "L2 hit latency in cycles",
     [](SystemConfig& c) -> auto& { return c.l2.latency_cycles; }},
    {"l2", "banks", "Number of L2 banks (power of two)",
     [](SystemConfig& c) -> auto& { return c.l2.banks; }},
    {"l2", "access_occupancy", "Cycles a demand access occupies its bank",
     [](SystemConfig& c) -> auto& { return c.l2.access_occupancy_cycles; }},
    {"l2", "refresh_occupancy",
     "Effective bank-interference cycles per refreshed line (calibration knob; 0 "
     "makes refresh invisible to timing)",
     [](SystemConfig& c) -> auto& { return c.l2.refresh_occupancy_cycles; }},
    {"l2", "queue_pressure", "Scale of the analytic bank queueing-delay term (0 disables)",
     [](SystemConfig& c) -> auto& { return c.l2.queue_pressure; }},

    {"mem", "latency", "Main-memory latency in cycles",
     [](SystemConfig& c) -> auto& { return c.mem.latency_cycles; }},
    {"mem", "bandwidth_gbps", "Main-memory bandwidth in GB/s",
     [](SystemConfig& c) -> auto& { return c.mem.bandwidth_gbps; }},

    {"edram", "retention_us",
     "eDRAM retention period in microseconds (50 default, 40 in par. 7.3)",
     [](SystemConfig& c) -> auto& { return c.edram.retention_us; }},
    {"edram", "rpv_phases", "Refrint polyphase count (paper evaluates 4)",
     [](SystemConfig& c) -> auto& { return c.edram.rpv_phases; }},
    {"edram", "ecc_correctable", "Correctable bits per line for the ecc-extended technique",
     [](SystemConfig& c) -> auto& { return c.edram.ecc_correctable; }},
    {"edram", "ecc_target_line_failure",
     "Residual per-line failure-probability budget for ECC interval extension",
     [](SystemConfig& c) -> auto& { return c.edram.ecc_target_line_failure; }},
    {"edram", "", "Retired CacheDecay interval; now kDecayIntervalRetentions",
     RetiredSlot{kDecayIntervalRetentions}},

    {"energy", "refresh_scale", "Multiplier on per-line refresh energy (1 = Table 2 values)",
     [](SystemConfig& c) -> auto& { return c.energy.refresh_scale; }},
    {"energy", "", "Retired dynamic-energy multiplier; Table 2's value is used as is",
     RetiredSlot{1.0}},
    {"energy", "", "Retired leakage multiplier; Table 2's value is used as is",
     RetiredSlot{1.0}},

    {"esteem", "alpha", "Hit-coverage threshold of Algorithm 1",
     [](SystemConfig& c) -> auto& { return c.esteem.alpha; }},
    {"esteem", "a_min", "Minimum number of active ways per module",
     [](SystemConfig& c) -> auto& { return c.esteem.a_min; }},
    {"esteem", "modules", "Number of logical set modules M",
     [](SystemConfig& c) -> auto& { return c.esteem.modules; }},
    {"esteem", "interval_cycles",
     "Reconfiguration interval in cycles, or `paper-scaled`: the paper's 10M cycles "
     "scaled to each run's instruction count (what --dump-config writes for the "
     "defaults)",
     [](SystemConfig& c) -> auto& { return c.esteem.interval_cycles; }, 1, nullptr,
     "paper-scaled"},
    {"esteem", "sampling_ratio", "Set-sampling ratio R_s (one leader set per R_s sets)",
     [](SystemConfig& c) -> auto& { return c.esteem.sampling_ratio; }},
    {"esteem", "nonlru_guard", "Limit turn-off to one way for modules with non-LRU hit patterns",
     [](SystemConfig& c) -> auto& { return c.esteem.nonlru_guard; }},
    {"esteem", "", "Retired leader-sample guard (was a u64 0: the same bytes as f64 0)",
     RetiredSlot{0.0}},
    {"esteem", "history_weight", "Exponential histogram smoothing across intervals (0 = paper-exact)",
     [](SystemConfig& c) -> auto& { return c.esteem.history_weight; }},
    {"esteem", "max_way_delta", "Cap on |delta active ways| per module per interval (0 = off)",
     [](SystemConfig& c) -> auto& { return c.esteem.max_way_delta; }},
    {"esteem", "hysteresis_intervals",
     "Suppress direction reversals within this many intervals (0 = off)",
     [](SystemConfig& c) -> auto& { return c.esteem.hysteresis_intervals; }},
    {"esteem", "shrink_confirm_intervals",
     "Apply shrinks only after this many consecutive shrink requests (0/1 = immediate)",
     [](SystemConfig& c) -> auto& { return c.esteem.shrink_confirm_intervals; }},

    {"faults", "enabled", "Enable retention-fault injection",
     [](SystemConfig& c) -> auto& { return c.faults.enabled; }},
    {"faults", "seed", "Seed of the deterministic weak-cell map",
     [](SystemConfig& c) -> auto& { return c.faults.seed; }},
    {"faults", "median_multiple", "Median cell retention as a multiple of the nominal period",
     [](SystemConfig& c) -> auto& { return c.faults.median_multiple; }},
    {"faults", "sigma", "Sigma of ln(cell retention)",
     [](SystemConfig& c) -> auto& { return c.faults.sigma; }},
    {"faults", "correction_latency", "Extra hit cycles when a line holds ECC-corrected bits",
     [](SystemConfig& c) -> auto& { return c.faults.correction_latency_cycles; }},
    {"faults", "disable_threshold", "Uncorrectable events on a line before it is disabled",
     [](SystemConfig& c) -> auto& { return c.faults.disable_threshold; }},
    {"faults", "max_tracked_extension",
     "Largest refresh-interval extension the weak-cell map resolves (1 to 64); an "
     "ecc-extended run with faults enabled needs at least its extension",
     [](SystemConfig& c) -> auto& { return c.faults.max_tracked_extension; }},

    {"sampling", "enabled",
     "Enable SMARTS-style systematic sampling (estimates with confidence intervals)",
     [](SystemConfig& c) -> auto& { return c.sampling.enabled; }},
    {"sampling", "window_instr", "Detailed measured window length in instructions per core",
     [](SystemConfig& c) -> auto& { return c.sampling.window_instr; }},
    {"sampling", "detail_warm_instr",
     "Detailed but unmeasured run-up before each window (drains cold timing state)",
     [](SystemConfig& c) -> auto& { return c.sampling.detail_warm_instr; }},
    {"sampling", "ff_warm_instr", "Functional-warming instructions before each detailed run-up",
     [](SystemConfig& c) -> auto& { return c.sampling.ff_warm_instr; }},
    {"sampling", "cold_warm_instr",
     "Functional warming after the initial (cold-cache) fast-forward",
     [](SystemConfig& c) -> auto& { return c.sampling.cold_warm_instr; }},
    {"sampling", "period_instr",
     "Sampling period: one measured window per this many instructions per core",
     [](SystemConfig& c) -> auto& { return c.sampling.period_instr; }},
};

const std::map<std::string, const ConfigField*>& ini_index() {
  static const std::map<std::string, const ConfigField*> kIndex = [] {
    std::map<std::string, const ConfigField*> idx;
    for (const ConfigField& f : kFields) {
      if (!f.key.empty()) idx.emplace(std::string(f.section) + "." + std::string(f.key), &f);
    }
    return idx;
  }();
  return kIndex;
}

}  // namespace

std::span<const ConfigField> config_fields() { return kFields; }

void write_config_bytes(ByteWriter& w, const SystemConfig& cfg) {
  for (const ConfigField& f : kFields) {
    std::visit(
        [&](auto access) {
          if constexpr (kRetired<decltype(access)>) put(w, access.value);
          else put(w, access(readable(cfg)));
        },
        f.access);
  }
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
    const auto it = ini_index().find(key);
    if (it == ini_index().end()) {
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
      set_ini_value(*it->second, cfg, value, key);
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
  std::string_view section;
  for (const ConfigField& f : kFields) {
    if (f.key.empty()) continue;
    if (f.section != section) {
      if (!section.empty()) out << "\n";
      section = f.section;
      out << "[" << section << "]\n";
    }
    out << f.key << " = " << ini_value(f, cfg) << "\n";
  }
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
     << "Every key is part of the memo-cache fingerprint: changing one changes\n"
     << "what a run computes and invalidates cached outcomes. That holds for\n"
     << "`[sampling]` too, even though it only changes *accounting*: a sampled\n"
     << "run reports estimates with confidence intervals instead of exhaustive\n"
     << "totals (see [SAMPLING.md](SAMPLING.md)), which are different bytes.\n";
  std::string_view section;
  for (const ConfigField& f : kFields) {
    if (f.key.empty()) continue;
    if (f.section != section) {
      section = f.section;
      os << "\n## [" << section << "]\n\n"
         << "| key | type | default | meaning |\n"
         << "|---|---|---|---|\n";
    }
    os << "| `" << f.key << "` | " << ini_type(f, defaults) << " | `" << ini_value(f, defaults)
       << "` | " << f.doc << " |\n";
  }
  return os.str();
}

}  // namespace esteem
