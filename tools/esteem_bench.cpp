// esteem_bench — sampled-vs-exhaustive wall-clock speedup of the sweep layer.
//
// Runs the same workload sweep twice cold, exhaustive and then SMARTS-sampled
// (docs/SAMPLING.md), and reports the wall-clock speedup as a single JSON
// line. Meant for the paper scale (--instr 400000000), where sampling must
// deliver >= 10x. Simulator throughput and per-layer costs are measured by
// perfbench (perfbench/README.md), not here.
//
//   esteem_bench [options]
//     --workloads N              the first N single-core workloads (default 8)
//     --techniques A[,B]         techniques vs. baseline (default: esteem,rpv)
//     --instr N                  measured instructions per core (default 8M,
//                                two sampling periods; the minimum)
//     --warmup N                 warm-up instructions per core (default instr/5)
//     --jobs N                   worker threads (0 = hardware concurrency)
//     --json FILE                also write the JSON line to FILE
//
// The memo cache is memory-only (this tool takes no --journal, and no tool
// reads a memo directory from the environment) and is cleared before each
// leg, so both legs always time simulation, never memoization.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "sweep_cli_common.hpp"
#include "trace/workloads.hpp"

namespace {

using namespace esteem;

[[noreturn]] void usage(const char* err = nullptr) {
  if (err) std::fprintf(stderr, "esteem_bench: %s\n", err);
  std::fprintf(stderr,
               "usage: esteem_bench [--workloads N] [--techniques A[,B]]\n"
               "                    [--instr N] [--warmup N] [--jobs N]\n"
               "                    [--json FILE]\n");
  std::exit(err ? 2 : 0);
}

/// Prints the result line on stdout and, when `json_path` is set, writes
/// the same line to that file. Returns the process exit code.
int emit_json(const std::string& line, const std::string& json_path) {
  std::printf("%s\n", line.c_str());
  if (json_path.empty()) return 0;
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "esteem_bench: cannot write %s\n", json_path.c_str());
    return 2;
  }
  std::fprintf(f, "%s\n", line.c_str());
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (tools::refuse_retired_variables("esteem_bench")) return 2;
  std::size_t n_workloads = 8;
  std::string techniques_arg = "esteem,rpv";
  std::string json_path;
  instr_t instr = 8'000'000;
  instr_t warmup = 0;  // 0 = instr / 5
  unsigned jobs = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    auto count = [&](auto& out) {
      const std::string v = value();
      if (!tools::parse_count(v, out)) usage(("bad number '" + v + "' for " + arg).c_str());
    };
    if (arg == "--workloads") count(n_workloads);
    else if (arg == "--techniques") techniques_arg = value();
    else if (arg == "--instr") count(instr);
    else if (arg == "--warmup") count(warmup);
    else if (arg == "--jobs") count(jobs);
    else if (arg == "--json") json_path = value();
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown option " + arg).c_str());
  }
  if (n_workloads == 0) usage("--workloads must be a positive count");
  if (warmup == 0) warmup = instr / 5;

  sim::SweepSpec spec;
  spec.workloads = trace::single_core_workloads();
  spec.workloads.resize(std::min(n_workloads, spec.workloads.size()));
  spec.config = SystemConfig::single_core();
  spec.techniques.clear();
  for (const std::string& name : tools::split_csv(techniques_arg)) {
    spec.techniques.push_back(sim::parse_technique(name));
  }
  if (spec.techniques.empty()) usage("empty technique list");
  spec.instr_per_core = instr;
  spec.warmup_instr_per_core = warmup;
  spec.threads = jobs;
  // Same interval scaling rule as the CLI's default sweep configuration.
  apply_scaled_interval(spec.config, instr);
  if (instr / spec.config.sampling.period_instr < 2) {
    usage(("--instr must cover at least two sampling periods (" +
           std::to_string(2 * spec.config.sampling.period_instr) + ")")
              .c_str());
  }

  const unsigned threads = sim::resolve_threads(jobs);
  const double instr_per_sweep =
      static_cast<double>(spec.workloads.size() * (1 + spec.techniques.size())) *
      spec.config.ncores * static_cast<double>(instr + warmup);

  std::fprintf(stderr,
               "esteem_bench: %zu workload(s) x %zu technique(s) + baseline, "
               "%llu instr/core (+%llu warm-up), %u worker thread(s)\n",
               spec.workloads.size(), spec.techniques.size(),
               static_cast<unsigned long long>(instr),
               static_cast<unsigned long long>(warmup), threads);

  auto timed_sweep = [&](const sim::SweepSpec& s, const char* what) {
    sim::RunCache::instance().clear();
    const auto t0 = std::chrono::steady_clock::now();
    const sim::SweepResult result = sim::run_sweep(s);
    const auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      for (const sim::RunError& e : result.errors) {
        std::fprintf(stderr, "esteem_bench: %s workload %s (%s) failed: %s\n",
                     what, e.workload.c_str(), e.technique.c_str(), e.what.c_str());
      }
      std::exit(3);
    }
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    std::fprintf(stderr, "  %s: %.3f s wall (%.2f simulated Minstr/s)\n", what,
                 wall, instr_per_sweep / 1e6 / std::max(wall, 1e-9));
    return wall;
  };
  // Exhaustive, then sampled with the default (paper-tier) sampling
  // parameters.
  const double exhaustive_s = timed_sweep(spec, "exhaustive");
  sim::SweepSpec sampled = spec;
  sampled.config.sampling.enabled = true;
  const double sampled_s = timed_sweep(sampled, "sampled");
  const double speedup = exhaustive_s / std::max(sampled_s, 1e-9);
  std::fprintf(stderr, "  sampled-vs-exhaustive speedup: %.2fx\n", speedup);

  std::ostringstream line;
  line << "{\"mode\":\"sampling_speedup\",\"workloads\":" << spec.workloads.size()
       << ",\"instr_per_core\":" << instr << ",\"warmup_per_core\":" << warmup
       << ",\"threads\":" << threads
       << ",\"exhaustive_wall_seconds\":" << json::number(exhaustive_s)
       << ",\"sampled_wall_seconds\":" << json::number(sampled_s)
       << ",\"speedup\":" << json::number(speedup) << '}';
  return emit_json(line.str(), json_path);
}
