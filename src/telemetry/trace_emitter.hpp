// Chrome trace_event JSON emitter, viewable in chrome://tracing or Perfetto.
//
// The trace has one "process" (pid kPid), simulated time: ts is simulated
// microseconds (cycles / freq), and rows (tids) are per-run lanes, one per
// run plus one per ESTEEM module. Telemetry::flush renders every finished
// run's interval series into it (telemetry.hpp); nothing else writes it.
//
// Events are buffered in memory and serialized once by write_json(); the
// output is the standard {"traceEvents":[...]} envelope with process/thread
// name metadata events. The emitter is not thread-safe: its owner
// serializes access.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace esteem::telemetry {

class TraceEmitter {
 public:
  static constexpr std::uint32_t kPid = 1;  ///< The simulated-time process.

  /// Metadata: names shown in the Perfetto track headers.
  void set_process_name(std::string_view name);
  void set_thread_name(std::uint32_t tid, std::string_view name);

  /// Complete event (ph "X"): a span of `dur_us` starting at `ts_us`.
  /// `args_json` is a raw JSON object ("{...}") or empty.
  void complete(std::uint32_t tid, std::string_view name, double ts_us, double dur_us,
                std::string args_json = {});

  /// Instant event (ph "i", thread scope).
  void instant(std::uint32_t tid, std::string_view name, double ts_us,
               std::string args_json = {});

  /// Counter event (ph "C"): one series named `name` with value `value`.
  void counter(std::string_view name, double ts_us, double value);

  std::size_t events() const noexcept { return events_.size(); }

  void write_json(std::ostream& os) const;
  /// write_json to `path`; returns false if the file cannot be opened.
  bool write_file(const std::string& path) const;

 private:
  struct Event {
    char ph;  // 'X' | 'i' | 'C' | 'M'
    std::uint32_t tid;
    double ts_us;
    double dur_us;  // ph == 'X' only
    std::string name;
    std::string args_json;  // raw object or empty
  };

  std::vector<Event> events_;
};

}  // namespace esteem::telemetry
