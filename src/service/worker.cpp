#include "service/worker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "chaos/file_ops.hpp"
#include "resilience/shutdown.hpp"
#include "service/lease_table.hpp"
#include "service/observer.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "telemetry/telemetry.hpp"

namespace esteem::service {

namespace {

/// Renews one claim's lease every `period_ms` until destroyed. Stops early
/// when the lease is observed lost (stolen after a stall) — the row's result
/// will be fenced anyway, so there is nothing left to keep alive.
///
/// The observability plane piggybacks here: when an Observer is attached the
/// thread wakes at min(heartbeat_ms, flush_ms) and asks the observer to
/// flush a due snapshot on every wake, while leases are still renewed only
/// on the heartbeat cadence. One background thread serves both duties — a
/// worker stuck inside a long simulation keeps publishing telemetry exactly
/// as long as it keeps its lease alive.
class Heartbeat {
 public:
  Heartbeat(LeaseTable& table, const LeaseClaim& claim, std::uint32_t period_ms,
            Observer* observer = nullptr)
      : table_(table), claim_(claim), renew_ms_(period_ms == 0 ? 1000 : period_ms),
        observer_(observer != nullptr && observer->enabled() ? observer : nullptr),
        thread_([this] { loop(); }) {}

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  ~Heartbeat() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  bool lost() const noexcept { return lost_.load(std::memory_order_relaxed); }

 private:
  std::uint32_t wake_ms(std::uint32_t flush_ms) const noexcept {
    return observer_ != nullptr && flush_ms != 0 ? std::min(renew_ms_, flush_ms)
                                                 : renew_ms_;
  }

  void loop() {
    const std::uint32_t period =
        wake_ms(observer_ != nullptr ? flush_period_ms() : 0);
    auto last_renew = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(period),
                         [this] { return stop_; })) {
      lock.unlock();
      if (observer_ != nullptr) observer_->flush_due();
      const auto now = std::chrono::steady_clock::now();
      bool renewed = true;
      if (now - last_renew >= std::chrono::milliseconds(renew_ms_)) {
        renewed = table_.renew(claim_, LeaseTable::wall_ms());
        last_renew = now;
      }
      lock.lock();
      if (!renewed) {
        lost_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  std::uint32_t flush_period_ms() const {
    return table_.spec().config.observability.flush_ms;
  }

  LeaseTable& table_;
  const LeaseClaim claim_;
  const std::uint32_t renew_ms_;
  Observer* const observer_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<bool> lost_{false};
  std::thread thread_;
};

/// Shutdown-aware idle sleep in small slices.
void poll_sleep(std::uint32_t poll_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(poll_ms == 0 ? 100 : poll_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (resilience::shutdown_requested()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

std::string default_owner() {
#if defined(_WIN32)
  return "host:0";
#else
  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  return std::string(host[0] != '\0' ? host : "host") + ":" + std::to_string(::getpid());
#endif
}

WorkerReport run_worker(const WorkerOptions& opts) {
  WorkerReport rep;
  const std::string owner = opts.owner.empty() ? default_owner() : opts.owner;

  LeaseTable table;
  if (!table.open(opts.dir, owner)) {
    rep.error = table.last_error();
    return rep;
  }
  const sim::SweepSpec& spec = table.spec();
  const ServiceConfig& sc = spec.config.service;
  const ObservabilityConfig& oc = spec.config.observability;

  // Observability plane (off unless the planned sweep set [observability]
  // flush_ms). Registry collection is enabled without any file outputs of
  // its own; the sidecar is the only thing written, and a sidecar that
  // cannot be opened degrades to running blind — never a fatal error.
  Observer observer;
  if (oc.flush_ms != 0) {
    if (!telemetry::active()) {
      telemetry::TelemetryConfig tc;
      tc.counters = true;
      telemetry::Telemetry::instance().configure(tc);
    }
    if (!observer.open(opts.dir, owner, oc)) {
      std::fprintf(stderr, "[%s] observability disabled: %s\n", owner.c_str(),
                   observer.last_error().c_str());
    }
    observer.event("info", "worker started");
  }

  // Share simulations (the baseline above all: every technique row of a
  // workload needs it) across workers through the service-local memo
  // directory, unless the operator already pointed the cache elsewhere.
  if (sim::RunCache::instance().disk_dir().empty()) {
    sim::RunCache::instance().set_disk_dir(
        (std::filesystem::path(opts.dir) / "memo").string());
  }

  // End-of-row bookkeeping for the sidecar: worker.* gauges mirror the
  // report so the fleet status can show per-worker progress live, and a
  // snapshot is flushed at every row boundary (the heartbeat thread covers
  // the long stretches inside a run).
  auto publish = [&rep, &observer]() {
    if (!observer.enabled() || !telemetry::active()) return;
    auto& reg = telemetry::registry();
    reg.gauge("worker.rows_completed").set(static_cast<double>(rep.rows_completed));
    reg.gauge("worker.rows_failed").set(static_cast<double>(rep.rows_failed));
    reg.gauge("worker.rows_stolen").set(static_cast<double>(rep.rows_stolen));
    observer.flush_snapshot();
  };

  while (true) {
    if (resilience::shutdown_requested()) {
      rep.interrupted = true;
      observer.event("warn", "interrupted (shutdown requested)");
      break;
    }

    const std::optional<LeaseClaim> claim = table.claim(LeaseTable::wall_ms());
    if (!claim) {
      const TableState st = table.load_state();
      if (!st.ok) {
        rep.error = st.error;
        break;
      }
      if (st.conflict) {
        rep.error = "integrity conflict: double-completed row with differing digests";
        break;
      }
      if (st.resolved()) break;  // Sweep finished (possibly by other workers).
      poll_sleep(sc.poll_ms);    // Everything claimable is leased right now.
      continue;
    }

    // Chaos drills die here holding the fresh lease, the way a real crash
    // lands mid-row (e.g. ESTEEM_CHAOS_SCHEDULE=worker.crash.after_claim@1=crash
    // completes one row and dies on the second claim).
    chaos::crashpoint("worker.crash.after_claim");

    rep.rows_stolen += claim->stolen ? 1 : 0;
    const trace::Workload& wl = table.row_workload(claim->row);
    const sim::Technique technique = table.row_technique(claim->row);
    const std::string tech_name{to_string(technique)};
    if (!opts.quiet) {
      std::fprintf(stderr, "[%s] row %zu: %s/%s%s\n", owner.c_str(), claim->row,
                   wl.name.c_str(), tech_name.c_str(), claim->stolen ? " (stolen)" : "");
    }
    observer.event("info",
                   "claimed " + wl.name + "/" + tech_name +
                       (claim->stolen ? " (stolen from an expired lease)" : ""),
                   claim->lease_id, claim->row);

    Heartbeat heartbeat(table, *claim, sc.heartbeat_ms, &observer);
    std::optional<sim::TechniqueComparison> comparison;
    sim::RunError error;
    std::string phase_label = "baseline";
    try {
      const auto base = sim::run_guarded(
          sim::sweep_run_spec(spec, wl, sim::Technique::BaselinePeriodicAll),
          "baseline:" + wl.name, nullptr);
      phase_label = tech_name;
      const auto tech = sim::run_guarded(sim::sweep_run_spec(spec, wl, technique),
                                         tech_name + ":" + wl.name, nullptr);
      comparison = sim::compare(wl.name, technique, *base, *tech);
    } catch (...) {
      error = sim::current_exception_to_run_error(wl.name, phase_label);
    }

    const AppendStatus status =
        comparison ? table.complete(*claim, *comparison) : table.fail(*claim, error);
    switch (status) {
      case AppendStatus::kOk:
        if (comparison) {
          ++rep.rows_completed;
          observer.event("info", "completed " + wl.name + "/" + tech_name,
                         claim->lease_id, claim->row);
        } else {
          ++rep.rows_failed;
          observer.event("error",
                         "failed " + wl.name + "/" + tech_name + ": " + error.what,
                         claim->lease_id, claim->row);
        }
        break;
      case AppendStatus::kDuplicate:
        break;
      case AppendStatus::kFenced:
        ++rep.fenced;  // Stalled past TTL; the thief owns the row now.
        observer.event("warn", "result fenced (lease lost past TTL)",
                       claim->lease_id, claim->row);
        break;
      case AppendStatus::kConflict:
        rep.error = "integrity conflict on row " + std::to_string(claim->row) +
                    " (" + wl.name + "/" + tech_name + "): differing digests";
        observer.event("error", rep.error, claim->lease_id, claim->row);
        publish();
        return rep;
      case AppendStatus::kError:
        rep.error = table.last_error();
        observer.event("error", rep.error, claim->lease_id, claim->row);
        publish();
        return rep;
    }
    publish();
  }
  observer.event("info", "worker exiting (" + std::to_string(rep.rows_completed) +
                             " completed, " + std::to_string(rep.rows_failed) +
                             " failed)");
  publish();
  return rep;
}

}  // namespace esteem::service
