// Crash-safe record log: append-only, fsync'd, per-line-checksummed JSONL.
//
// Each record is one line of flat JSON whose values are strings (the caller
// hex-encodes anything binary), closed by a CRC-32 of everything before the
// crc field:
//
//   {"v":1,"kind":"row","workload":"mcf","payload":"9a3f...","crc":"8d21c4f0"}
//
// Durability contract: append() writes the whole line with a single write(2)
// to an O_APPEND descriptor and fsyncs before returning, so once append()
// returns the record survives SIGKILL and power loss. A crash *during*
// append leaves at most one torn tail line, which load() detects via the
// CRC (or the missing newline) and reports as corrupt instead of returning
// garbage — everything before the tear is still usable.
//
// Multi-writer contract: several processes may append to the same path
// through their own JournalFile instances; O_APPEND makes each record write
// atomic with respect to the others. A writer that dies mid-append can
// therefore leave a short record in the *middle* of the file (the next
// writer's line lands after the tear). load() skips and counts such damaged
// interior lines (`journal.damaged_lines` telemetry counter) — and salvages
// an intact record that a missing newline glued onto a torn fragment —
// instead of refusing the journal.
//
// This layer knows nothing about sweeps; sim/sweep_journal.hpp gives the
// records their meaning.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace esteem::resilience {

/// One journal record: a kind tag plus ordered (key, value) string fields.
/// Keys and values are JSON-escaped by the writer (common/json), so any
/// bytes survive; callers still hex-encode binary payloads so lines stay
/// short and readable.
struct JournalRecord {
  std::string kind;
  std::vector<std::pair<std::string, std::string>> fields;

  /// First value stored under `key`; "" when absent.
  const std::string& field(const std::string& key) const;
};

/// Structured observability event — the shared `evt` record kind of the
/// journal schema (DESIGN.md §13). Every journal/sidecar writer that wants
/// to log "something happened" uses this shape, so loaders across the
/// service can decode each other's events: a severity, both clock domains
/// (wall milliseconds always; simulated microseconds when the event came
/// from inside a run, else negative), the emitting source, an optional
/// lease/row context, and a free-form message (hex-encoded on the wire).
struct EventRecord {
  /// `row` value meaning "no row context".
  static constexpr std::uint64_t kNoRow = ~0ULL;

  std::int64_t t_ms = 0;        ///< Wall clock, ms since the Unix epoch.
  double sim_us = -1.0;         ///< Simulated time; < 0 = not applicable.
  std::string severity;         ///< "info" | "warn" | "error".
  std::string source;           ///< Emitting owner/component.
  std::string message;          ///< Free-form text (any bytes).
  std::uint64_t lease_id = 0;   ///< 0 = no lease context.
  std::uint64_t row = kNoRow;

  /// Renders as an `evt` JournalRecord (field order fixed by the schema).
  JournalRecord to_journal() const;
  /// Inverse of to_journal(); false when `rec` is not a decodable event.
  static bool from_journal(const JournalRecord& rec, EventRecord& out);
};

struct JournalLoadResult {
  std::vector<JournalRecord> records;  ///< CRC-verified records, file order.
  std::size_t corrupt_lines = 0;       ///< Torn/garbled lines skipped.
  bool exists = false;                 ///< File was present and readable.
};

class JournalFile {
 public:
  JournalFile() = default;
  ~JournalFile();
  JournalFile(const JournalFile&) = delete;
  JournalFile& operator=(const JournalFile&) = delete;

  /// Names this journal's chaos-injection points (DESIGN.md §15): domain
  /// `d` consults `d.open`, `d.append.write`, `d.append.fsync`,
  /// `d.crash.before_append`, `d.crash.after_append`. Call before open();
  /// the default domain is "journal" (unregistered — fault plans target the
  /// registered domains: "sweep", "lease", "sidecar").
  void set_domain(const std::string& domain);

  /// Opens `path` for appending. `truncate` starts a fresh journal;
  /// otherwise existing records are preserved and appends go after them.
  /// Returns false (with the reason in last_error()) when the file cannot
  /// be opened.
  bool open(const std::string& path, bool truncate);

  /// Appends one checksummed record line and fsyncs. Thread-safe. Returns
  /// false if the journal is closed or the write/fsync failed.
  bool append(const JournalRecord& record);

  void close();
  bool is_open() const noexcept { return fd_ >= 0; }
  const std::string& path() const noexcept { return path_; }
  const std::string& last_error() const noexcept { return last_error_; }

  /// Parses a journal from disk, CRC-verifying every line. Never throws:
  /// unreadable file -> exists=false; damaged lines are counted and skipped.
  static JournalLoadResult load(const std::string& path);

  /// Renders a record as its line (without trailing newline) — the exact
  /// bytes append() writes. Exposed for tests.
  static std::string encode(const JournalRecord& record);

  /// Inverse of encode(); false when the line is torn, garbled, or fails
  /// its CRC.
  static bool decode(const std::string& line, JournalRecord& out);

 private:
  std::mutex mutex_;
  int fd_ = -1;
  std::string path_;
  std::string last_error_;
  // Chaos point names, precomputed so the disarmed fast path never builds
  // strings (see set_domain()).
  std::string pt_open_ = "journal.open";
  std::string pt_write_ = "journal.append.write";
  std::string pt_fsync_ = "journal.append.fsync";
  std::string pt_crash_before_ = "journal.crash.before_append";
  std::string pt_crash_after_ = "journal.crash.after_append";
};

}  // namespace esteem::resilience
