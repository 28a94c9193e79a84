#include "service/coordinator.hpp"

#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "resilience/shutdown.hpp"
#include "service/observer.hpp"
#include "service/wire.hpp"
#include "sim/report.hpp"

namespace esteem::service {

namespace {

void poll_sleep(std::uint32_t poll_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(poll_ms == 0 ? 100 : poll_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (resilience::shutdown_requested()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

bool plan_service(const std::string& dir, const sim::SweepSpec& spec, std::string& error) {
  LeaseTable table;
  if (!table.create(dir, spec, "planner")) {
    error = table.last_error();
    return false;
  }
  return true;
}

sim::SweepResult aggregate_rows(const LeaseTable& table, const TableState& state) {
  const sim::SweepSpec& spec = table.spec();
  const std::size_t n_tech = spec.techniques.size();

  sim::SweepResult result;
  result.techniques = spec.techniques;
  result.rows.resize(spec.workloads.size());

  for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
    sim::WorkloadRow& row = result.rows[wi];
    row.workload = spec.workloads[wi].name;
    row.comparisons.assign(n_tech, sim::TechniqueComparison{});

    bool all_done = true;
    for (std::size_t ti = 0; ti < n_tech; ++ti) {
      const RowState& cell = state.rows[wi * n_tech + ti];
      if (!cell.done) {
        all_done = false;
        continue;
      }
      std::vector<sim::TechniqueComparison> decoded;
      if (!decode_comparisons(cell.data, 1, decoded)) {
        all_done = false;  // Undecodable despite a valid CRC: binary skew.
        continue;
      }
      row.comparisons[ti] = decoded.front();
    }
    if (all_done) {
      row.completed = true;
      continue;
    }

    // Mirror run_sweep's deterministic error report: one entry per failed
    // workload, the baseline phase outranking techniques, techniques in
    // spec order. (A baseline failure fails every cell of the workload with
    // technique "baseline", so any such cell represents it.)
    std::optional<sim::RunError> first;
    for (std::size_t ti = 0; !first && ti < n_tech; ++ti) {
      const RowState& cell = state.rows[wi * n_tech + ti];
      if (cell.failed && cell.error.technique == "baseline") first = cell.error;
    }
    for (std::size_t ti = 0; !first && ti < n_tech; ++ti) {
      const RowState& cell = state.rows[wi * n_tech + ti];
      if (cell.failed) first = cell.error;
    }
    if (first) {
      result.errors.push_back(std::move(*first));
    } else {
      row.skipped = true;  // Unresolved cells (partial collect): resumable.
    }
  }
  return result;
}

CollectResult wait_and_collect(const CoordinatorOptions& opts) {
  CollectResult out;
  LeaseTable table;
  if (!table.open(opts.dir, "coordinator")) {
    out.error = table.last_error();
    return out;
  }
  const std::uint32_t poll_ms = table.spec().config.service.poll_ms;
  const auto t0 = std::chrono::steady_clock::now();

  std::size_t last_resolved = static_cast<std::size_t>(-1);
  TableState st;
  while (true) {
    st = table.load_state();
    if (!st.ok) {
      out.error = st.error;
      return out;
    }
    if (st.conflict) {
      out.integrity_error = true;
      out.error = "integrity conflict: a row holds success cells with differing "
                  "digests (mismatched worker binaries?)";
      return out;
    }
    const std::size_t resolved = st.completed + st.failed;
    if (!opts.quiet && resolved != last_resolved) {
      // The same fleet line --status and esteem_cli --serve print: one
      // source of truth (collect_fleet_status), so the surfaces cannot skew.
      const FleetStatus fs = collect_fleet_status(table, st, LeaseTable::wall_ms());
      std::fprintf(stderr, "%s\n", progress_line(fs).c_str());
      last_resolved = resolved;
    }
    if (st.resolved()) break;
    if (resilience::shutdown_requested()) {
      out.interrupted = true;
      out.error = "interrupted while waiting for workers";
      return out;
    }
    if (opts.timeout_ms != 0 &&
        std::chrono::steady_clock::now() - t0 > std::chrono::milliseconds(opts.timeout_ms)) {
      out.timed_out = true;
      out.error = "timed out waiting for workers (" + std::to_string(resolved) + "/" +
                  std::to_string(st.rows.size()) + " rows resolved)";
      return out;
    }
    poll_sleep(poll_ms);
  }

  out.result = aggregate_rows(table, st);
  if (!opts.csv_path.empty()) sim::write_csv(out.result, opts.csv_path);

  // Post-run fleet metrics: flag wins, else the planned sweep's
  // [observability] metrics_path. Best-effort and stderr-only — the stdout
  // report stays byte-identical to the in-process sweep.
  const std::string metrics = !opts.metrics_path.empty()
                                  ? opts.metrics_path
                                  : table.spec().config.observability.metrics_path;
  if (!metrics.empty()) {
    std::string merr;
    if (write_fleet_metrics(opts.dir, metrics, merr)) {
      if (!opts.quiet) {
        std::fprintf(stderr, "[coordinator] metrics written to %s\n", metrics.c_str());
      }
    } else {
      std::fprintf(stderr, "[coordinator] metrics not written: %s\n", merr.c_str());
    }
  }
  out.ok = true;
  return out;
}

int report_collect(const CollectResult& collected, const CoordinatorOptions& opts) {
  if (!collected.ok) {
    std::fprintf(stderr, "error: %s\n", collected.error.c_str());
    if (collected.integrity_error) return kExitIntegrity;
    if (collected.interrupted) return resilience::kExitInterrupted;
    if (collected.timed_out) return kExitTimeout;
    return 2;
  }
  const sim::SweepResult& result = collected.result;
  std::printf("%s", sim::figure_report(result, "sweep").c_str());
  if (!opts.csv_path.empty()) {
    std::printf("csv written to %s\n", opts.csv_path.c_str());
  }
  if (!result.errors.empty()) {
    std::fprintf(stderr, "\nsweep errors (%zu of %zu workloads failed):\n",
                 result.errors.size(), result.rows.size());
    for (const sim::RunError& e : result.errors) {
      if (e.phase == "run") {
        std::fprintf(stderr, "  workload %-16s technique %-14s %s\n", e.workload.c_str(),
                     e.technique.c_str(), e.what.c_str());
      } else {
        std::fprintf(stderr, "  workload %-16s technique %-14s [%s] %s\n",
                     e.workload.c_str(), e.technique.c_str(), e.phase.c_str(),
                     e.what.c_str());
      }
    }
  }
  return result.errors.empty() ? 0 : 3;
}

}  // namespace esteem::service
