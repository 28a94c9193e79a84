// Process-wide telemetry hub: collects the per-run interval series and
// renders the Chrome trace from them.
//
// A run records one thing, its interval series (IntervalRecorder). end_run
// writes the series as <dir>/<label>.intervals.jsonl and keeps it; flush
// renders every kept run's simulated-time trace lanes into trace.json, in
// label order, so a column added to the series reaches both outputs from
// one place and the trace does not depend on which run finished first.
//
// Everything is gated off by default: until configure() names a directory,
// active() is false and no run sink is created — the simulator's hot paths
// check a null pointer at most, so tier-1 output and perf are untouched
// (the observer-effect test pins byte-identical sweep CSV with telemetry on
// and off).
//
// Layering: telemetry sits just above esteem_common. The cpu/sim layers
// depend on it, never the reverse — the hub knows nothing about RunSpec or
// SweepSpec; run labels and column sets are built by the caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/interval_recorder.hpp"

namespace esteem::telemetry {

/// Replaces anything outside [A-Za-z0-9._+-] with '_' (run labels become
/// file names).
std::string sanitize_label(const std::string& label);

struct TelemetryConfig {
  /// Output directory for the interval series and trace.json ("" =
  /// telemetry off).
  std::string dir;
};

/// Per-run sink handed down to System/MemorySystem. Created by
/// Telemetry::begin_run, consumed by Telemetry::end_run.
struct RunSink {
  RunSink(const std::string& run_label, double freq_ghz, std::vector<std::string> columns)
      : label(sanitize_label(run_label)), cycles_per_us(freq_ghz * 1e3),
        recorder(std::move(columns)) {}

  std::string label;           ///< Sanitized "<workload>.<technique>.sN".
  double cycles_per_us = 1.0;  ///< freq_ghz * 1000; converts cycles to sim us.
  IntervalRecorder recorder;   ///< One row per interval boundary.
  /// Measurement start and the per-module ways in effect from it (empty
  /// for non-ESTEEM runs), set when the sink is attached to a lane.
  std::uint64_t start_cycle = 0;
  std::vector<std::uint32_t> start_ways;

  double sim_us(std::uint64_t cycle) const noexcept {
    return static_cast<double>(cycle) / cycles_per_us;
  }
};

class Telemetry {
 public:
  /// Process-wide instance (never destroyed, like RunCache).
  static Telemetry& instance();

  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Replaces the configuration and forgets every kept run;
  /// configure({}) disables everything.
  void configure(const TelemetryConfig& cfg);

  /// True when telemetry is on.
  bool active() const noexcept { return active_.load(std::memory_order_relaxed); }

  /// Creates a per-run sink recording `columns` (null when telemetry is off).
  std::unique_ptr<RunSink> begin_run(const std::string& label, double freq_ghz,
                                     std::vector<std::string> columns);

  /// Finishes a run: writes its interval series as
  /// <dir>/<label>.intervals.jsonl and keeps a copy for flush.
  void end_run(const RunSink& sink);

  struct FlushResult {
    std::string trace_path;  ///< "" when telemetry is off or the write failed.
    std::size_t trace_events = 0;
    /// Every interval series written since configure(), in label order.
    std::vector<std::string> series_paths;
  };
  /// Renders every kept run into trace.json in the configured dir: run
  /// lanes in label order (runs of one label by their series bytes, then
  /// start and clock), tids numbered from 1 in that order.
  FlushResult flush();

 private:
  struct FinishedRun {
    RunSink sink;
    std::string series;  ///< The JSONL bytes; orders runs of one label.
    std::string path;    ///< The written series ("" when the write failed).
  };

  std::mutex mutex_;  ///< Guards dir_ and runs_.
  std::filesystem::path dir_;
  std::atomic<bool> active_{false};
  std::vector<FinishedRun> runs_;  ///< Every run ended since configure().
};

/// Shorthand for instrumentation sites.
inline bool active() noexcept { return Telemetry::instance().active(); }

/// Canonical interval-series column set recorded by the memory system at
/// every tick_interval. `module_ways` appends one `moduleK_active_ways`
/// column per ESTEEM module; MemorySystem fills values in exactly this
/// order — keep the two in sync.
std::vector<std::string> interval_columns(std::uint32_t module_ways);

}  // namespace esteem::telemetry
