#include "sim/report.hpp"

#include <sstream>

#include "common/csv.hpp"
#include "common/table.hpp"

namespace esteem::sim {

std::string figure_report(const SweepResult& result, const std::string& title) {
  TextTable table;
  std::vector<std::string> header{"workload"};
  for (Technique t : result.techniques) {
    const std::string n{to_string(t)};
    header.push_back(n + ":energy%");
    header.push_back(n + ":WS");
    header.push_back(n + ":RPKIdec");
    if (t == Technique::Esteem) {
      header.push_back(n + ":MPKIinc");
      header.push_back(n + ":active%");
    }
  }
  table.set_header(std::move(header));

  auto emit = [&](const WorkloadRow& row) {
    std::vector<std::string> cells{row.workload};
    if (!row.completed) {
      // Errored workload: flag it instead of reading incomplete comparisons.
      // An interrupted (shutdown-skipped) workload was never evaluated.
      for (std::size_t i = 0; i < result.techniques.size(); ++i) {
        cells.push_back(row.skipped ? "SKIPPED" : "ERROR");
        cells.push_back("-");
        cells.push_back("-");
        if (result.techniques[i] == Technique::Esteem) {
          cells.push_back("-");
          cells.push_back("-");
        }
      }
      table.add_row(std::move(cells));
      return;
    }
    for (std::size_t i = 0; i < result.techniques.size(); ++i) {
      const TechniqueComparison& c = row.comparisons[i];
      // Sampled rows carry a 95% confidence half-interval on the headline
      // metrics; exhaustive rows render exactly as before.
      if (c.sampled) {
        cells.push_back(fmt(c.energy_saving_pct, 2) + "±" + fmt(c.energy_saving_ci, 2));
        cells.push_back(fmt(c.weighted_speedup, 3) + "±" + fmt(c.weighted_speedup_ci, 3));
      } else {
        cells.push_back(fmt(c.energy_saving_pct, 2));
        cells.push_back(fmt(c.weighted_speedup, 3));
      }
      cells.push_back(fmt(c.rpki_decrease, 1));
      if (result.techniques[i] == Technique::Esteem) {
        cells.push_back(fmt(c.mpki_increase, 3));
        cells.push_back(fmt(c.active_ratio_pct, 1));
      }
    }
    table.add_row(std::move(cells));
  };

  bool any_completed = false;
  for (const WorkloadRow& row : result.rows) {
    any_completed |= row.completed;
    emit(row);
  }

  if (any_completed) {
    WorkloadRow avg;
    avg.workload = "average";
    avg.completed = true;
    for (Technique t : result.techniques) avg.comparisons.push_back(result.summary(t));
    table.add_separator();
    emit(avg);
  }

  std::ostringstream os;
  os << title << '\n' << table.to_string();
  if (result.interrupted) {
    std::size_t skipped = 0;
    for (const WorkloadRow& row : result.rows) skipped += row.skipped ? 1 : 0;
    os << "interrupted: shutdown requested; " << skipped
       << " workload(s) skipped (rerun with the same --journal DIR to resume)\n";
  }
  if (!result.errors.empty()) {
    os << "errors (" << result.errors.size() << "):\n";
    for (const RunError& e : result.errors) {
      os << "  " << e.workload << " [" << e.technique << "]: " << e.what << '\n';
    }
  }
  return os.str();
}

std::string table3_row_label(const std::string& label) { return label; }

void write_csv(const SweepResult& result, const std::string& path) {
  // CI columns appear only when at least one row came from a sampled run, so
  // exhaustive sweeps keep the exact pre-sampling byte layout (the goldens
  // and downstream parsers pin it).
  bool any_sampled = false;
  for (const WorkloadRow& row : result.rows) {
    if (!row.completed) continue;
    for (const TechniqueComparison& c : row.comparisons) any_sampled |= c.sampled;
  }

  CsvWriter csv(path);
  std::vector<std::string> header{"workload", "technique", "energy_saving_pct",
                                  "weighted_speedup", "fair_speedup", "rpki_base",
                                  "rpki_tech", "rpki_decrease", "mpki_base", "mpki_tech",
                                  "mpki_increase", "active_ratio_pct", "ecc_corrected_reads",
                                  "fault_refetches", "fault_data_loss",
                                  "fault_disabled_lines"};
  if (any_sampled) {
    header.insert(header.end(), {"energy_saving_ci", "weighted_speedup_ci", "rpki_tech_ci",
                                 "mpki_tech_ci", "active_ratio_ci"});
  }
  csv.write_row(header);
  for (const WorkloadRow& row : result.rows) {
    if (!row.completed) continue;  // errored rows are reported via errors
    for (const TechniqueComparison& c : row.comparisons) {
      std::vector<std::string> cells{row.workload, std::string(to_string(c.technique)),
                                     fmt(c.energy_saving_pct, 4), fmt(c.weighted_speedup, 4),
                                     fmt(c.fair_speedup, 4), fmt(c.rpki_base, 2),
                                     fmt(c.rpki_tech, 2), fmt(c.rpki_decrease, 2),
                                     fmt(c.mpki_base, 4), fmt(c.mpki_tech, 4),
                                     fmt(c.mpki_increase, 4), fmt(c.active_ratio_pct, 2),
                                     std::to_string(c.ecc_corrected_reads),
                                     std::to_string(c.fault_refetches),
                                     std::to_string(c.fault_data_loss),
                                     std::to_string(c.fault_disabled_lines)};
      if (any_sampled) {
        cells.push_back(fmt(c.energy_saving_ci, 4));
        cells.push_back(fmt(c.weighted_speedup_ci, 4));
        cells.push_back(fmt(c.rpki_tech_ci, 4));
        cells.push_back(fmt(c.mpki_tech_ci, 4));
        cells.push_back(fmt(c.active_ratio_ci, 4));
      }
      csv.write_row(cells);
    }
  }
}

}  // namespace esteem::sim
