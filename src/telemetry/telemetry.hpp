// Process-wide telemetry hub: owns the global CounterRegistry, the Chrome
// trace and the per-run interval series.
//
// A run records one thing, its interval series (IntervalRecorder). end_run
// writes the series as <dir>/<label>.intervals.jsonl and renders the run's
// simulated-time trace lanes from it, so a column added to the series
// reaches both outputs from one place.
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

#include "telemetry/counter_registry.hpp"
#include "telemetry/interval_recorder.hpp"
#include "telemetry/trace_emitter.hpp"

namespace esteem::telemetry {

/// Replaces anything outside [A-Za-z0-9._+-] with '_' (run labels become
/// file names).
std::string sanitize_label(const std::string& label);

struct TelemetryConfig {
  /// Output directory for the interval series, counters.json and trace.json
  /// ("" = telemetry off).
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

  /// Replaces the configuration. A directory starts a fresh (empty)
  /// trace; configure({}) disables everything.
  void configure(const TelemetryConfig& cfg);

  /// True when telemetry is on.
  bool active() const noexcept { return active_.load(std::memory_order_relaxed); }

  CounterRegistry& registry() noexcept { return registry_; }

  /// Creates a per-run sink recording `columns` (null when telemetry is off).
  std::unique_ptr<RunSink> begin_run(const std::string& label, double freq_ghz,
                                     std::vector<std::string> columns);

  /// Finishes a run: writes its interval series as
  /// <dir>/<label>.intervals.jsonl and renders its trace lanes (a run lane
  /// plus one per module) from it. Returns the written path ("" when
  /// telemetry is off or the write failed).
  std::string end_run(const RunSink& sink);

  /// Paths written by end_run since the last drain (for CLI reporting).
  std::vector<std::string> drain_written();

  struct FlushResult {
    std::string trace_path;     ///< "" when telemetry is off or the write failed.
    std::size_t trace_events = 0;
    std::string counters_path;  ///< "" when telemetry is off or the write failed.
  };
  /// Writes trace.json and counters.json into the configured dir.
  FlushResult flush();

 private:
  std::mutex mutex_;  ///< Guards dir_, next_tid_, trace_ and written_.
  std::filesystem::path dir_;
  std::atomic<bool> active_{false};
  std::uint32_t next_tid_ = 1;  ///< First lane of the next rendered run.
  CounterRegistry registry_;
  TraceEmitter trace_;
  std::vector<std::string> written_;
};

/// Shorthand accessors for instrumentation sites.
inline bool active() noexcept { return Telemetry::instance().active(); }
inline CounterRegistry& registry() noexcept { return Telemetry::instance().registry(); }

/// Canonical interval-series column set recorded by the memory system at
/// every tick_interval. `module_ways` appends one `moduleK_active_ways`
/// column per ESTEEM module; MemorySystem fills values in exactly this
/// order — keep the two in sync.
std::vector<std::string> interval_columns(std::uint32_t module_ways);

}  // namespace esteem::telemetry
