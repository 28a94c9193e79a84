// Process-wide telemetry hub: owns the global CounterRegistry, the optional
// Chrome TraceEmitter, and per-run interval sinks.
//
// Everything is gated off by default: until configure() enables a feature,
// active() is false, trace_sink() is null, and no run sink is created — the
// simulator's hot paths check a null pointer at most, so tier-1 output and
// perf are untouched (the observer-effect test pins byte-identical sweep
// CSV with telemetry on and off).
//
// Layering: telemetry sits just above esteem_common. The cpu/sim layers
// depend on it, never the reverse — the hub knows nothing about RunSpec or
// SweepSpec; run labels and column sets are built by the caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/counter_registry.hpp"
#include "telemetry/interval_recorder.hpp"
#include "telemetry/trace_emitter.hpp"

namespace esteem::telemetry {

struct TelemetryConfig {
  /// Record per-interval counter rows into <dir>/<label>.intervals.jsonl.
  bool interval_stats = false;
  /// Output directory for interval series and the counters.json dump
  /// ("" = current directory).
  std::string dir;
  /// Chrome trace output path; non-empty enables the TraceEmitter.
  std::string trace_path;

  /// A bare dir still counts: it enables counter collection and the
  /// counters.json dump even without interval stats or tracing.
  bool any() const noexcept {
    return interval_stats || !trace_path.empty() || !dir.empty();
  }
};

/// Per-run sink handed down to System/MemorySystem. Created by
/// Telemetry::begin_run, consumed by Telemetry::end_run, which writes the
/// interval series (if any) to disk.
struct RunSink {
  std::string label;           ///< Sanitized "<workload>.<technique>.sN".
  double cycles_per_us = 1.0;  ///< freq_ghz * 1000; converts cycles to sim us.
  std::unique_ptr<IntervalRecorder> recorder;  ///< Null unless a series is recorded.
  TraceEmitter* trace = nullptr;               ///< Null unless tracing.
  std::uint32_t sim_tid = 0;  ///< First simulated-time lane of this run.

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

  /// Replaces the configuration. Enabling tracing creates a fresh (empty)
  /// TraceEmitter; configure({}) disables everything.
  void configure(const TelemetryConfig& cfg);
  TelemetryConfig config() const;

  /// True when any telemetry feature is enabled.
  bool active() const noexcept { return active_.load(std::memory_order_relaxed); }
  bool interval_stats_enabled() const noexcept {
    return interval_stats_.load(std::memory_order_relaxed);
  }

  CounterRegistry& registry() noexcept { return registry_; }
  /// Null unless a trace path is configured.
  TraceEmitter* trace() noexcept { return trace_.get(); }

  /// Creates a per-run sink (null when nothing is enabled). `columns` is the
  /// interval-series column set (ignored unless interval stats are on);
  /// `sim_lanes` is the number of simulated-time trace lanes to reserve
  /// (run lane + one per module).
  std::unique_ptr<RunSink> begin_run(const std::string& label, double freq_ghz,
                                     std::vector<std::string> columns,
                                     std::uint32_t sim_lanes);

  /// Finishes a run: writes the interval series into the configured dir
  /// when interval stats are on. Returns the written path ("" when nothing
  /// was written).
  std::string end_run(RunSink& sink);

  /// Interval-series file path for a run label under the current config.
  std::string interval_series_path(const std::string& label) const;

  /// Paths written by end_run since the last drain (for CLI reporting).
  std::vector<std::string> drain_written();

  struct FlushResult {
    std::string trace_path;     ///< "" when tracing is off or the write failed.
    std::size_t trace_events = 0;
    std::string counters_path;  ///< "" unless a dir is configured.
  };
  /// Writes the trace file and (when a dir is configured) counters.json.
  FlushResult flush();

 private:
  mutable std::mutex mutex_;
  TelemetryConfig config_;
  std::atomic<bool> active_{false};
  std::atomic<bool> interval_stats_{false};
  std::atomic<std::uint32_t> next_sim_tid_{1};
  CounterRegistry registry_;
  std::unique_ptr<TraceEmitter> trace_;
  std::vector<std::string> written_;
};

/// Shorthand accessors for instrumentation sites.
inline bool active() noexcept { return Telemetry::instance().active(); }
inline CounterRegistry& registry() noexcept { return Telemetry::instance().registry(); }
inline TraceEmitter* trace_sink() noexcept { return Telemetry::instance().trace(); }

/// Replaces anything outside [A-Za-z0-9._+-] with '_' (run labels become
/// file names).
std::string sanitize_label(const std::string& label);

/// Canonical interval-series column set recorded by the memory system at
/// every tick_interval. `module_ways` appends one `moduleK_active_ways`
/// column per ESTEEM module; MemorySystem fills values in exactly this
/// order — keep the two in sync.
std::vector<std::string> interval_columns(std::uint32_t module_ways);

}  // namespace esteem::telemetry
