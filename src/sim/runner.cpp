#include "sim/runner.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/stats.hpp"
#include "resilience/shutdown.hpp"
#include "sim/run_cache.hpp"

namespace esteem::sim {

namespace {

/// One (workload, technique) run of the sweep, written only by the thread
/// that claimed it.
struct Cell {
  std::shared_ptr<const RunOutcome> outcome;
  std::optional<RunError> error;
  /// Never run because shutdown was requested before the cell started.
  bool skipped = false;
};

/// Runs `fn`; an exception escaping it becomes the returned RunError for
/// `workload`/`technique`.
template <typename F>
std::optional<RunError> capture_error(const std::string& workload,
                                      const std::string& technique, F&& fn) {
  try {
    fn();
    return std::nullopt;
  } catch (const std::exception& e) {
    return RunError{workload, technique, e.what()};
  } catch (...) {
    return RunError{workload, technique, "unknown exception"};
  }
}

}  // namespace

unsigned resolve_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

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

SweepResult run_sweep(const SweepSpec& spec) {
  if (spec.workloads.empty()) throw std::invalid_argument("run_sweep: no workloads");
  for (std::size_t i = 0; i < spec.techniques.size(); ++i) {
    const Technique t = spec.techniques[i];
    if (t == Technique::BaselinePeriodicAll) {
      throw std::invalid_argument("run_sweep: baseline is implicit; do not list it");
    }
    if (std::find(spec.techniques.begin(), spec.techniques.begin() + i, t) !=
        spec.techniques.begin() + i) {
      throw std::invalid_argument("run_sweep: technique " + std::string(to_string(t)) +
                                  " listed twice");
    }
  }

  // Cells in workload-major order: w0 baseline, w0 t1, w0 t2, w1 baseline,
  // ... A technique run never reads its baseline (only compare() does, after
  // the join), so every cell is independent. When the config's runs share a
  // reference stream (cpu::shares_stream), a row is one task that runs all
  // its cells over one stream; otherwise every cell is a task of its own.
  // Each thread simply claims the next task. One thread claims them in
  // exactly cell order, which is the serial schedule the memo store order
  // and the resume tests rely on.
  const std::size_t n_techniques = spec.techniques.size();
  const std::size_t stride = 1 + n_techniques;
  const auto technique_of = [&](std::size_t ti) {
    return ti == 0 ? Technique::BaselinePeriodicAll : spec.techniques[ti - 1];
  };
  const auto label_of = [&](std::size_t cell) {
    const std::size_t ti = cell % stride;
    return ti == 0 ? std::string("baseline") : std::string(to_string(technique_of(ti)));
  };
  std::vector<Cell> cells(spec.workloads.size() * stride);
  std::vector<std::vector<std::size_t>> tasks;  // cell indices, in order
  const bool rows_share = cpu::shares_stream(spec.config);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (rows_share && i % stride != 0) {
      tasks.back().push_back(i);
    } else {
      tasks.push_back({i});
    }
  }
  std::atomic<std::size_t> next{0};

  auto work = [&] {
    for (std::size_t k; (k = next.fetch_add(1, std::memory_order_relaxed)) < tasks.size();) {
      const std::vector<std::size_t>& task = tasks[k];
      // Graceful shutdown: unclaimed tasks drain without running, finished
      // runs stay in the memo cache, and the sweep reports as interrupted.
      if (resilience::shutdown_requested()) {
        for (std::size_t i : task) cells[i].skipped = true;
        continue;
      }
      const trace::Workload& workload = spec.workloads[task.front() / stride];
      std::vector<RunSpec> specs;
      std::string labels;
      for (std::size_t i : task) {
        const Technique technique = technique_of(i % stride);
        specs.push_back(sweep_run_spec(spec, workload, technique));
        if (!labels.empty()) labels += '+';
        labels += label_of(i);
      }
      std::vector<std::shared_ptr<const RunOutcome>> outcomes;
      const std::optional<RunError> error = capture_error(workload.name, labels, [&] {
        outcomes = RunCache::instance().get_or_run_group(specs);
      });
      for (std::size_t j = 0; j < task.size(); ++j) {
        Cell& cell = cells[task[j]];
        if (!error) {
          cell.outcome = outcomes[j];
          continue;
        }
        cell.error = *error;
        cell.error->technique = label_of(task[j]);
      }
    }
  };

  const std::size_t n_threads =
      std::min<std::size_t>(resolve_threads(spec.threads), tasks.size());
  if (n_threads <= 1) {
    work();
  } else {
    std::vector<std::jthread> workers;
    workers.reserve(n_threads);
    for (std::size_t w = 0; w < n_threads; ++w) {
      workers.emplace_back(work);
    }
  }  // jthreads join here

  // Serial post-pass in workload order. A row reports its first failing run
  // (baseline outranks techniques, techniques in spec order). A row with a
  // shutdown-skipped cell carries no error unless its baseline failed — its
  // missing runs simply execute on resume.
  SweepResult result;
  result.techniques = spec.techniques;
  result.rows.resize(spec.workloads.size());
  for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
    WorkloadRow& row = result.rows[wi];
    row.workload = spec.workloads[wi].name;
    row.comparisons.assign(n_techniques, TechniqueComparison{});
    Cell* const row_cells = &cells[wi * stride];
    const Cell& base = row_cells[0];
    if (!base.error && std::any_of(row_cells, row_cells + stride,
                                   [](const Cell& c) { return c.skipped; })) {
      row.skipped = true;
      result.interrupted = true;
      continue;
    }
    for (std::size_t ti = 0; base.outcome && ti < n_techniques; ++ti) {
      Cell& cell = row_cells[1 + ti];
      if (!cell.outcome) continue;
      const Technique technique = spec.techniques[ti];
      cell.error = capture_error(row.workload, std::string(to_string(technique)), [&] {
        row.comparisons[ti] = compare(row.workload, technique, *base.outcome, *cell.outcome);
      });
    }
    const Cell* failed = std::find_if(row_cells, row_cells + stride,
                                      [](const Cell& c) { return c.error.has_value(); });
    if (failed != row_cells + stride) {
      result.errors.push_back(*failed->error);
    } else {
      row.completed = true;
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
