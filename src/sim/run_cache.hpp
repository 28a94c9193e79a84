// RunOutcome memoization shared by the sweep runner, the CLI, and every
// printed report in the process.
//
// Key: a canonical byte-level fingerprint of everything that determines a
// run's result — every field of the SystemConfig (the config field table
// in common/config_io), the workload spec, the technique, the seed,
// the instruction/warm-up budgets, and the retired timeline flag. The
// simulator is deterministic in these inputs, so a fingerprint match means
// the cached RunOutcome is bit-identical to what a fresh run would produce.
//
// Concurrency: the first requester of a key computes the run; concurrent
// requesters of the same key block on a shared_future instead of
// recomputing. Distinct keys never contend beyond the map lookup. A group
// request (get_or_run_group) claims its keys under one lock, publishes
// each key it computes before it waits on any key another thread owns, and
// so never deadlocks against another group.
//
// Persistence (optional): set_disk_dir, which `--journal DIR` calls (the
// cache reads no environment), spills every computed outcome to
// `esteem-memo-<hash>.bin` and reloads it in later processes, so
// regenerating a figure after the first run costs file reads, not
// simulation. Files carry a magic, a format version, and a CRC32 over the
// payload; a hash collision or a stale format reads as a plain miss, while
// a *damaged* file (truncated, bit-flipped, bad magic) is self-healing:
// it is quarantined to `<dir>/corrupt/`, counted in stats().quarantined
// and named on stderr, and the outcome is transparently recomputed and
// re-stored. Delete the directory after
// changing simulator behaviour — the fingerprint hashes inputs, not code.
//
// The memo directory is also the sweep resume format (DESIGN.md §11):
// `esteem_cli --journal DIR` points it at DIR, every finished run is
// published durably (fsync before the rename), and rerunning the same
// command restores those runs as disk hits. A failed spill is therefore
// never silent: it is counted in stats().store_errors and named in a
// stderr line.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/experiment.hpp"

namespace esteem::sim {

/// Canonical fingerprint of a RunSpec (stable across processes).
std::string run_spec_fingerprint(const RunSpec& spec);

/// FNV-1a of the fingerprint — the short key used for disk filenames and
/// log lines.
std::uint64_t fingerprint_hash(const std::string& fingerprint);

/// FNV-1a over the canonical serialized form of a RunOutcome: a short,
/// bit-exact identity for comparing outcomes across processes (the
/// benchmark harness pins its result digests with it).
std::uint64_t outcome_digest(const RunOutcome& outcome);

struct RunCacheStats {
  std::uint64_t hits = 0;          ///< Served from the in-process map.
  std::uint64_t misses = 0;        ///< Keys that had to be resolved.
  std::uint64_t disk_hits = 0;     ///< Misses satisfied by a memo file.
  std::uint64_t disk_stores = 0;   ///< Outcomes spilled to disk.
  std::uint64_t quarantined = 0;   ///< Damaged memo files moved to corrupt/.
  std::uint64_t store_errors = 0;  ///< Failed write-then-rename spills.
  std::uint64_t store_fsync_errors = 0;  ///< Temp-file fsync failures.
};

class RunCache {
 public:
  /// Process-wide instance; memory-only until set_disk_dir names a directory.
  static RunCache& instance();

  RunCache() = default;
  RunCache(const RunCache&) = delete;
  RunCache& operator=(const RunCache&) = delete;

  /// Returns the memoized outcome for `spec`, computing it (at most once per
  /// key, even under concurrency) on a miss. Propagates the run's exception
  /// and leaves the key uncached so a later call can retry.
  std::shared_ptr<const RunOutcome> get_or_run(const RunSpec& spec);

  /// get_or_run for a group that run_experiment can run in one pass (its
  /// group form): every key is claimed and published on its own. A key
  /// already claimed is a hit and waits for its owner, exactly as in
  /// get_or_run. Each key this call claims counts one miss, is restored
  /// from its memo file if there is one, and the rest run together, each
  /// writing its own memo file. Returns one outcome per spec, in order.
  /// On a throw, every key this call claimed and had not published is left
  /// uncached.
  std::vector<std::shared_ptr<const RunOutcome>> get_or_run_group(
      const std::vector<RunSpec>& group);

  /// Drops every in-memory entry and zeroes the stats. Disk files survive.
  void clear();

  /// Zeroes the hit/miss/disk counters while keeping every cached entry.
  /// Benches and tools call this to scope the process-global counters to one
  /// invocation, so a second bench in the same process reports its own hit
  /// rate instead of inheriting the first one's history.
  void reset_stats();

  /// Enables ("" disables) on-disk persistence. The directory is created on
  /// first store; failing to create it counts as a store error.
  void set_disk_dir(std::string dir);
  std::string disk_dir() const;

  RunCacheStats stats() const;
  std::size_t entries() const;

 private:
  using OutcomePtr = std::shared_ptr<const RunOutcome>;

  bool load_from_disk(std::uint64_t hash, const std::string& fingerprint,
                      OutcomePtr& out) const;
  void store_to_disk(std::uint64_t hash, const std::string& fingerprint,
                     const RunOutcome& outcome);
  /// Moves a damaged memo file into `<dir>/corrupt/` (removes it when the
  /// move fails) and counts the event; the caller then recomputes.
  void quarantine_file(const std::string& dir, std::uint64_t hash,
                       const char* reason) const;
  /// Counts a failed spill (stats, telemetry, stderr).
  void note_store_error(const char* reason);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_future<OutcomePtr>> map_;
  mutable RunCacheStats stats_;  ///< disk_hits ticks inside const load path.
  std::string disk_dir_;
};

}  // namespace esteem::sim
