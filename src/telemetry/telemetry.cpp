#include "telemetry/telemetry.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace esteem::telemetry {

Telemetry& Telemetry::instance() {
  static Telemetry* hub = new Telemetry();
  return *hub;
}

void Telemetry::configure(const TelemetryConfig& cfg) {
  const std::lock_guard<std::mutex> lock(mutex_);
  config_ = cfg;
  if (!cfg.trace_path.empty()) {
    trace_ = std::make_unique<TraceEmitter>();
    trace_->set_process_name(TraceEmitter::kSimPid, "simulated time");
    trace_->set_process_name(TraceEmitter::kWallPid, "wall clock");
  } else {
    trace_.reset();
  }
  written_.clear();
  interval_stats_.store(cfg.interval_stats, std::memory_order_relaxed);
  active_.store(cfg.any(), std::memory_order_relaxed);
}

TelemetryConfig Telemetry::config() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return config_;
}

std::unique_ptr<RunSink> Telemetry::begin_run(const std::string& label,
                                              double freq_ghz,
                                              std::vector<std::string> columns,
                                              std::uint32_t sim_lanes) {
  if (!interval_stats_enabled() && trace() == nullptr) return nullptr;
  auto sink = std::make_unique<RunSink>();
  sink->label = sanitize_label(label);
  sink->cycles_per_us = freq_ghz * 1e3;
  if (interval_stats_enabled()) {
    sink->recorder = std::make_unique<IntervalRecorder>(std::move(columns));
  }
  sink->trace = trace();
  if (sink->trace != nullptr && sim_lanes > 0) {
    sink->sim_tid = next_sim_tid_.fetch_add(sim_lanes, std::memory_order_relaxed);
    sink->trace->set_thread_name(TraceEmitter::kSimPid, sink->sim_tid, sink->label);
    for (std::uint32_t m = 1; m < sim_lanes; ++m) {
      sink->trace->set_thread_name(TraceEmitter::kSimPid, sink->sim_tid + m,
                                   sink->label + " module " + std::to_string(m - 1));
    }
  }
  return sink;
}

std::string Telemetry::interval_series_path(const std::string& label) const {
  std::string dir;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dir = config_.dir;
  }
  const std::filesystem::path p(dir.empty() ? "." : dir);
  return (p / (sanitize_label(label) + ".intervals.jsonl")).string();
}

std::string Telemetry::end_run(RunSink& sink) {
  if (!sink.recorder || !interval_stats_enabled()) return {};
  std::string dir;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dir = config_.dir;
  }
  const std::string path = interval_series_path(sink.label);
  std::error_code ec;
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  if (ec || !sink.recorder->write_jsonl_file(path)) {
    std::fprintf(stderr, "telemetry: cannot write %s\n", path.c_str());
    return {};
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  written_.push_back(path);
  return path;
}

std::vector<std::string> Telemetry::drain_written() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out = std::move(written_);
  written_.clear();
  return out;
}

Telemetry::FlushResult Telemetry::flush() {
  FlushResult r;
  TelemetryConfig cfg = config();
  if (trace_ != nullptr && !cfg.trace_path.empty()) {
    r.trace_events = trace_->events();
    if (trace_->write_file(cfg.trace_path)) {
      r.trace_path = cfg.trace_path;
    } else {
      std::fprintf(stderr, "telemetry: cannot write %s\n", cfg.trace_path.c_str());
    }
  }
  if (active() && !cfg.dir.empty()) {
    const std::string path = (std::filesystem::path(cfg.dir) / "counters.json").string();
    std::error_code ec;
    std::filesystem::create_directories(cfg.dir, ec);
    std::ofstream out;
    if (!ec) out.open(path, std::ios::trunc);
    out << registry_.to_json() << '\n';  // fails on a stream that did not open
    if (out.good()) {
      r.counters_path = path;
    } else {
      std::fprintf(stderr, "telemetry: cannot write %s\n", path.c_str());
    }
  }
  return r;
}

std::string sanitize_label(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '+' ||
                    c == '-';
    out += ok ? c : '_';
  }
  return out;
}

std::vector<std::string> interval_columns(std::uint32_t module_ways) {
  std::vector<std::string> cols{
      "active_ratio",        "demand_hits",        "demand_misses",
      "refreshes",           "reconfig_transitions", "reconfig_writebacks",
      "ecc_corrected_reads", "fault_uncorrectable"};
  for (std::uint32_t m = 0; m < module_ways; ++m) {
    cols.push_back("module" + std::to_string(m) + "_active_ways");
  }
  return cols;
}

}  // namespace esteem::telemetry
