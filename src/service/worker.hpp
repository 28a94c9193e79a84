// Sweep-service worker: the lease->run->journal loop one `esteem_workerd
// --worker` process executes (DESIGN.md §12).
//
// Each iteration claims one (workload x technique) row from the shared
// LeaseTable, evaluates it through the same sweep_run_spec/run_guarded path
// the in-process scheduler uses (watchdog deadline, retries, RunCache memo
// — workers on one machine share baselines through the service-local memo
// directory), journals the result, and moves on. A background heartbeat
// renews the row's lease every [service] heartbeat_ms while the simulation
// runs, so only a worker that actually died goes silent for a full TTL and
// has its row stolen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace esteem::service {

struct WorkerOptions {
  std::string dir;    ///< Planned service directory.
  std::string owner;  ///< Worker identity; "" = default_owner().
  bool quiet = false;  ///< Suppress per-row stderr progress lines.
};

struct WorkerReport {
  std::size_t rows_completed = 0;  ///< Success cells journaled by this worker.
  std::size_t rows_failed = 0;     ///< Error records journaled by this worker.
  std::size_t rows_stolen = 0;     ///< Claims that re-leased an expired lease.
  std::size_t fenced = 0;          ///< Results dropped by the zombie fence.
  bool interrupted = false;        ///< SIGINT/SIGTERM drained the loop.
  std::string error;               ///< Fatal service error ("" = clean exit).

  bool ok() const noexcept { return error.empty(); }
};

/// "<hostname>:<pid>" — unique per worker process on a shared filesystem.
std::string default_owner();

/// Blocking worker loop. Returns when every row is resolved, shutdown is
/// requested, or a fatal service error occurs (see WorkerReport::error).
WorkerReport run_worker(const WorkerOptions& opts);

}  // namespace esteem::service
