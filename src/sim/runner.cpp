#include "sim/runner.hpp"

#include <atomic>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/stats.hpp"
#include "resilience/shutdown.hpp"
#include "resilience/watchdog.hpp"
#include "sim/run_cache.hpp"
#include "sim/task_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace esteem::sim {

namespace {

/// RAII wall-clock span for one sweep task (no-op when tracing is off):
/// pid kWallPid, one row per pool worker thread, so the task-pool schedule
/// is visible next to the simulated-time lanes in Perfetto.
class TaskSpan {
 public:
  explicit TaskSpan(std::string name)
      : trace_(telemetry::trace_sink()), name_(std::move(name)),
        t0_(trace_ != nullptr ? telemetry::TraceEmitter::wall_now_us() : 0.0) {
    if (telemetry::active()) telemetry::registry().counter("sweep.tasks").add();
  }
  ~TaskSpan() {
    if (trace_ == nullptr) return;
    trace_->complete(telemetry::TraceEmitter::kWallPid,
                     telemetry::TraceEmitter::wall_tid(), name_, t0_,
                     telemetry::TraceEmitter::wall_now_us() - t0_);
  }

 private:
  telemetry::TraceEmitter* trace_;
  std::string name_;
  double t0_;
};

/// Per-workload scheduling state. The baseline future is fulfilled exactly
/// once by the workload's baseline task; technique tasks are only submitted
/// after that, so their .get() never blocks a pool worker.
struct WorkloadTaskState {
  std::promise<std::shared_ptr<const RunOutcome>> baseline_promise;
  std::shared_future<std::shared_ptr<const RunOutcome>> baseline;
  std::optional<RunError> baseline_error;
  std::vector<std::optional<RunError>> technique_errors;
  /// Set when any of this workload's tasks was drained without running
  /// because shutdown was requested.
  std::atomic<bool> skipped{false};
  /// Set when the consecutive-error circuit breaker drained a task instead.
  std::atomic<bool> breaker_skipped{false};
};

/// [resilience] max_consecutive_errors: N run failures in a row (counted
/// after run_guarded exhausted its retries, reset by any success) trip the
/// breaker, and every task dispatched afterwards drains as breaker-skipped.
/// "Consecutive" is in task-completion order, which under threading is a
/// best-effort interleaving — good enough to tell "this config fails every
/// run" from "one workload is flaky", which is all the breaker is for.
struct CircuitBreaker {
  explicit CircuitBreaker(std::uint32_t threshold) : threshold_(threshold) {}

  bool tripped() const noexcept {
    return threshold_ != 0 && tripped_.load(std::memory_order_relaxed);
  }
  void note_success() noexcept {
    if (threshold_ != 0) consecutive_.store(0, std::memory_order_relaxed);
  }
  void note_error() noexcept {
    if (threshold_ == 0) return;
    if (consecutive_.fetch_add(1, std::memory_order_acq_rel) + 1 >= threshold_ &&
        !tripped_.exchange(true, std::memory_order_acq_rel) &&
        telemetry::active()) {
      telemetry::registry().counter("resilience.circuit_tripped").add();
    }
  }

 private:
  const std::uint32_t threshold_;
  std::atomic<std::uint32_t> consecutive_{0};
  std::atomic<bool> tripped_{false};
};

}  // namespace

RunSpec sweep_run_spec(const SweepSpec& spec, const trace::Workload& workload,
                       Technique technique) {
  RunSpec rs;
  rs.config = spec.config;
  rs.technique = technique;
  rs.workload = workload;
  rs.seed = spec.seed;
  rs.instr_per_core = spec.instr_per_core;
  rs.warmup_instr_per_core = spec.warmup_instr_per_core;
  return rs;
}

RunError current_exception_to_run_error(const std::string& workload,
                                        const std::string& technique) {
  try {
    throw;
  } catch (const resilience::DeadlineExceeded& e) {
    return RunError{workload, technique, e.what(), "deadline"};
  } catch (const std::exception& e) {
    return RunError{workload, technique, e.what(), "run"};
  } catch (...) {
    return RunError{workload, technique, "unknown exception", "run"};
  }
}

std::shared_ptr<const RunOutcome> run_guarded(const RunSpec& rs, const std::string& label) {
  const ResilienceConfig& rc = rs.config.resilience;
  const resilience::RetryPolicy policy{rc.max_retries, rc.backoff_ms};
  return resilience::with_retries(
      policy,
      [&]() -> std::shared_ptr<const RunOutcome> {
        resilience::WatchdogGuard guard(label, rc.run_deadline_ms);
        auto out = run_experiment_cached(rs);
        if (guard.expired()) {
          // The outcome exists (and stays memoized, on disk too, for a
          // future more generous attempt or a resume) but arrived past the
          // budget: discard it so a hung run fails the same way whether or
          // not it ever returns.
          throw resilience::DeadlineExceeded(label, rc.run_deadline_ms);
        }
        return out;
      },
      [](std::uint32_t, std::uint64_t) {
        if (telemetry::active()) {
          telemetry::registry().counter("resilience.retries").add();
        }
      });
}

SweepResult run_sweep(const SweepSpec& spec) {
  // Self-profiling: the sweep's wall time lands in the phase rollup printed
  // with the sweep summary and emitted in the esteem_bench JSON.
  telemetry::ScopedTimer sweep_timer(telemetry::profiler(), "sweep");
  if (spec.workloads.empty()) throw std::invalid_argument("run_sweep: no workloads");
  for (Technique t : spec.techniques) {
    if (t == Technique::BaselinePeriodicAll) {
      throw std::invalid_argument("run_sweep: baseline is implicit; do not list it");
    }
  }

  const std::size_t n_workloads = spec.workloads.size();
  const std::size_t n_techniques = spec.techniques.size();

  SweepResult result;
  result.techniques = spec.techniques;
  result.rows.resize(n_workloads);

  // Every (workload, technique) cell has a preallocated slot written by
  // exactly one task, so the threaded schedule produces bit-identical rows
  // to the inline (threads = 1) schedule regardless of completion order.
  std::vector<std::unique_ptr<WorkloadTaskState>> states;
  states.reserve(n_workloads);
  for (std::size_t i = 0; i < n_workloads; ++i) {
    WorkloadRow& row = result.rows[i];
    row.workload = spec.workloads[i].name;
    row.comparisons.assign(n_techniques, TechniqueComparison{});
    auto state = std::make_unique<WorkloadTaskState>();
    state->baseline = state->baseline_promise.get_future().share();
    state->technique_errors.resize(n_techniques);
    states.push_back(std::move(state));
  }

  // One unit per task: baseline + every technique of the workload. A failed
  // (or shutdown-skipped) baseline retires its techniques' units without
  // scheduling them.
  const std::size_t n_tasks = n_workloads * (1 + n_techniques);
  std::latch done(static_cast<std::ptrdiff_t>(n_tasks));

  const unsigned resolved = TaskPool::resolve_threads(spec.threads);
  TaskPool pool(std::min<unsigned>(resolved, static_cast<unsigned>(n_tasks)));

  CircuitBreaker breaker(spec.config.resilience.max_consecutive_errors);

  for (std::size_t wi = 0; wi < n_workloads; ++wi) {
    pool.submit([&spec, &result, &states, &pool, &done, &breaker, wi,
                 n_techniques] {
      const trace::Workload& workload = spec.workloads[wi];
      WorkloadTaskState& state = *states[wi];

      // Graceful shutdown: queued tasks drain without executing, so the
      // pool empties, finished runs stay in the memo cache, and the caller
      // reports the sweep as interrupted. A tripped circuit breaker drains
      // the same way but marks the row breaker-skipped.
      if (resilience::shutdown_requested()) {
        state.skipped.store(true, std::memory_order_relaxed);
        state.baseline_promise.set_value(nullptr);
        done.count_down(static_cast<std::ptrdiff_t>(1 + n_techniques));
        return;
      }
      if (breaker.tripped()) {
        state.breaker_skipped.store(true, std::memory_order_relaxed);
        state.baseline_promise.set_value(nullptr);
        done.count_down(static_cast<std::ptrdiff_t>(1 + n_techniques));
        return;
      }
      const TaskSpan span("baseline:" + workload.name);

      std::shared_ptr<const RunOutcome> base;
      try {
        base = run_guarded(
            sweep_run_spec(spec, workload, Technique::BaselinePeriodicAll),
            "baseline:" + workload.name);
        breaker.note_success();
      } catch (...) {
        state.baseline_error =
            current_exception_to_run_error(workload.name, "baseline");
        breaker.note_error();
      }
      state.baseline_promise.set_value(base);  // null signals baseline failure
      if (base == nullptr) {
        done.count_down(static_cast<std::ptrdiff_t>(1 + n_techniques));
        return;
      }

      for (std::size_t ti = 0; ti < n_techniques; ++ti) {
        pool.submit([&spec, &result, &states, &done, &breaker, wi, ti] {
          const trace::Workload& wl = spec.workloads[wi];
          const Technique technique = spec.techniques[ti];
          WorkloadTaskState& st = *states[wi];
          if (resilience::shutdown_requested()) {
            st.skipped.store(true, std::memory_order_relaxed);
            done.count_down();
            return;
          }
          if (breaker.tripped()) {
            st.breaker_skipped.store(true, std::memory_order_relaxed);
            done.count_down();
            return;
          }
          const TaskSpan span(std::string(to_string(technique)) + ":" + wl.name);
          try {
            const std::shared_ptr<const RunOutcome> baseline = st.baseline.get();
            const std::shared_ptr<const RunOutcome> tech = run_guarded(
                sweep_run_spec(spec, wl, technique),
                std::string(to_string(technique)) + ":" + wl.name);
            result.rows[wi].comparisons[ti] = compare(wl.name, technique, *baseline, *tech);
            breaker.note_success();
          } catch (...) {
            st.technique_errors[ti] = current_exception_to_run_error(
                wl.name, std::string(to_string(technique)));
            breaker.note_error();
          }
          done.count_down();
        });
      }
      done.count_down();
    });
  }
  done.wait();

  // Deterministic error report: workload order, first failing phase per
  // workload (baseline outranks techniques, techniques in spec order).
  // Shutdown-skipped workloads carry no error — their missing runs simply
  // execute on resume.
  for (std::size_t wi = 0; wi < n_workloads; ++wi) {
    WorkloadTaskState& state = *states[wi];
    if (state.skipped.load(std::memory_order_relaxed)) {
      result.rows[wi].skipped = true;
      result.interrupted = true;
      continue;
    }
    std::optional<RunError> first = std::move(state.baseline_error);
    for (std::size_t ti = 0; !first && ti < n_techniques; ++ti) {
      first = std::move(state.technique_errors[ti]);
    }
    if (state.breaker_skipped.load(std::memory_order_relaxed)) {
      // Breaker-skipped rows are not "interrupted": the errors that tripped
      // the breaker make the sweep exit 3, and a rerun over the same memo
      // directory restores every run that did finish. A workload that
      // errored *and* was then breaker-skipped still reports its error —
      // the trip must never swallow the failures that caused it.
      result.rows[wi].skipped = true;
      result.circuit_broken = true;
      if (first) result.errors.push_back(std::move(*first));
      continue;
    }
    if (first) {
      result.errors.push_back(std::move(*first));
    } else {
      result.rows[wi].completed = true;
    }
  }
  if (resilience::shutdown_requested()) result.interrupted = true;
  return result;
}

TechniqueComparison SweepResult::summary(Technique t) const {
  std::size_t col = techniques.size();
  for (std::size_t i = 0; i < techniques.size(); ++i) {
    if (techniques[i] == t) col = i;
  }
  if (col == techniques.size()) {
    throw std::invalid_argument("summary: technique not in sweep");
  }

  std::vector<double> ws, fs, energy, rpki_base, rpki_tech, rpki_dec, mpki_base,
      mpki_tech, mpki_inc, active;
  for (const WorkloadRow& row : rows) {
    if (!row.completed) continue;  // errored rows carry no comparison data
    const TechniqueComparison& c = row.comparisons[col];
    ws.push_back(c.weighted_speedup);
    fs.push_back(c.fair_speedup);
    energy.push_back(c.energy_saving_pct);
    rpki_base.push_back(c.rpki_base);
    rpki_tech.push_back(c.rpki_tech);
    rpki_dec.push_back(c.rpki_decrease);
    mpki_base.push_back(c.mpki_base);
    mpki_tech.push_back(c.mpki_tech);
    mpki_inc.push_back(c.mpki_increase);
    active.push_back(c.active_ratio_pct);
  }
  if (ws.empty()) {
    throw std::runtime_error("summary: no workload completed");
  }

  TechniqueComparison s;
  s.workload = "average";
  s.technique = t;
  s.energy_saving_pct = mean(energy);
  s.weighted_speedup = geomean(ws);   // speedups average geometrically (§6.4)
  s.fair_speedup = geomean(fs);
  s.rpki_base = mean(rpki_base);
  s.rpki_tech = mean(rpki_tech);
  s.rpki_decrease = mean(rpki_dec);
  s.mpki_base = mean(mpki_base);
  s.mpki_tech = mean(mpki_tech);
  s.mpki_increase = mean(mpki_inc);
  s.active_ratio_pct = mean(active);
  return s;
}

}  // namespace esteem::sim
