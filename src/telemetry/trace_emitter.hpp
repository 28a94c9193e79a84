// Chrome trace_event JSON emitter, viewable in chrome://tracing or Perfetto.
//
// The timeline spans two clock domains, modelled as two trace "processes":
//   pid kSimPid  — simulated time. ts is simulated microseconds
//                  (cycles / freq); rows (tids) are per-run lanes: one lane
//                  per run plus one per ESTEEM module, carrying
//                  reconfiguration spans ("ways=N"), refresh/fault instants
//                  and active-ratio counter tracks.
//   pid kWallPid — wall-clock time. ts is microseconds of std::steady_clock
//                  since process start; rows are OS threads (one per sweep
//                  worker, named "pool worker N"), carrying one span per
//                  sweep cell, memo-cache hit/miss instants and run-phase
//                  spans.
//
// Events are buffered in memory under a mutex (emission happens at interval /
// sweep-cell granularity, so contention is negligible) and serialized once by
// write_json(); the output is the standard {"traceEvents":[...]} envelope
// with process/thread-name metadata events.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace esteem::telemetry {

class TraceEmitter {
 public:
  static constexpr std::uint32_t kSimPid = 1;   ///< Simulated-time process.
  static constexpr std::uint32_t kWallPid = 2;  ///< Wall-clock process.

  TraceEmitter();

  /// Metadata: names shown in the Perfetto track headers.
  void set_process_name(std::uint32_t pid, std::string_view name);
  void set_thread_name(std::uint32_t pid, std::uint32_t tid, std::string_view name);

  /// Complete event (ph "X"): a span of `dur_us` starting at `ts_us`.
  /// `args_json` is a raw JSON object ("{...}") or empty.
  void complete(std::uint32_t pid, std::uint32_t tid, std::string_view name,
                double ts_us, double dur_us, std::string args_json = {});

  /// Instant event (ph "i", thread scope).
  void instant(std::uint32_t pid, std::uint32_t tid, std::string_view name,
               double ts_us, std::string args_json = {});

  /// Counter event (ph "C"): one series named `name` with value `value`.
  void counter(std::uint32_t pid, std::string_view name, double ts_us, double value);

  std::size_t events() const;
  void clear();

  void write_json(std::ostream& os) const;
  /// write_json to `path`; returns false if the file cannot be opened.
  bool write_file(const std::string& path) const;

  /// Stable small integer id for the calling OS thread (wall-clock tids).
  static std::uint32_t wall_tid() noexcept;
  /// Microseconds of steady_clock since process start (wall-clock ts).
  static double wall_now_us() noexcept;

 private:
  struct Event {
    char ph;  // 'X' | 'i' | 'C' | 'M'
    std::uint32_t pid;
    std::uint32_t tid;
    double ts_us;
    double dur_us;  // ph == 'X' only
    std::string name;
    std::string args_json;  // raw object or empty
  };

  void push(Event e);

  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

}  // namespace esteem::telemetry
