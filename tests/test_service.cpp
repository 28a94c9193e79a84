// Tests for the multi-process sweep service: spec wire codec, lease
// claim/renew/expiry/steal with injected clocks, zombie fencing, duplicate
// dedupe, digest-conflict detection, and in-process worker/coordinator
// byte-identity against run_sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/bytes.hpp"
#include "resilience/journal_file.hpp"
#include "resilience/shutdown.hpp"
#include "service/coordinator.hpp"
#include "service/lease_table.hpp"
#include "service/observer.hpp"
#include "service/wire.hpp"
#include "service/worker.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "sim/sweep_journal.hpp"

namespace esteem::service {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() / ("esteem-service-" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 100'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;
  return cfg;
}

sim::SweepSpec tiny_sweep(std::vector<std::string> workloads,
                          std::vector<sim::Technique> techniques) {
  sim::SweepSpec spec;
  spec.config = tiny();
  for (const std::string& w : workloads) spec.workloads.push_back({w, {w}});
  spec.techniques = std::move(techniques);
  spec.instr_per_core = 100'000;
  spec.warmup_instr_per_core = 20'000;
  spec.threads = 1;
  return spec;
}

sim::TechniqueComparison sample_comparison(double salt) {
  sim::TechniqueComparison c;
  c.workload = "mcf";
  c.technique = sim::Technique::RefrintRPV;
  c.energy_saving_pct = 12.25 + salt;
  c.weighted_speedup = 1.0625;
  c.rpki_base = 400.5;
  c.rpki_tech = 100.125;
  c.active_ratio_pct = 87.5;
  return c;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------- wire codec

TEST(ServiceWire, RoundTripIsExact) {
  sim::SweepSpec spec = tiny_sweep({"mcf", "gobmk+namd"},
                                   {sim::Technique::Esteem, sim::Technique::RefrintRPV});
  spec.workloads[1].benchmarks = {"gobmk", "namd"};  // multi-program workload
  // Values 6-significant-digit INI formatting would mangle — the codec must
  // carry f64 bits, not text.
  spec.config.esteem.alpha = 1.0 / 3.0;
  spec.config.l2.refresh_occupancy_cycles = 4.000000123456789;
  spec.config.service.lease_ttl_ms = 1234;
  spec.config.observability.flush_ms = 250;
  spec.config.observability.events_max = 99;
  spec.config.observability.metrics_path = "out/metrics.om";
  spec.seed = 0xDEADBEEFCAFEF00DULL;

  sim::SweepSpec out;
  ASSERT_TRUE(decode_sweep_spec(encode_sweep_spec(spec), out));
  EXPECT_EQ(out.config.esteem.alpha, spec.config.esteem.alpha);
  EXPECT_EQ(out.config.l2.refresh_occupancy_cycles, spec.config.l2.refresh_occupancy_cycles);
  EXPECT_EQ(out.config.service.lease_ttl_ms, 1234u);
  EXPECT_EQ(out.config.observability.flush_ms, 250u);
  EXPECT_EQ(out.config.observability.events_max, 99u);
  EXPECT_EQ(out.config.observability.metrics_path, "out/metrics.om");
  EXPECT_EQ(out.seed, spec.seed);
  EXPECT_EQ(out.instr_per_core, spec.instr_per_core);
  ASSERT_EQ(out.workloads.size(), 2u);
  EXPECT_EQ(out.workloads[1].name, "gobmk+namd");
  ASSERT_EQ(out.workloads[1].benchmarks.size(), 2u);
  EXPECT_EQ(out.workloads[1].benchmarks[1], "namd");
  ASSERT_EQ(out.techniques.size(), 2u);
  EXPECT_EQ(out.techniques[0], sim::Technique::Esteem);
  // Decoded specs must hash identically — the service header's skew guard.
  EXPECT_EQ(sim::sweep_fingerprint_hash(out), sim::sweep_fingerprint_hash(spec));
}

TEST(ServiceWire, RejectsTruncationTrailingBytesAndForeignVersion) {
  const sim::SweepSpec spec = tiny_sweep({"mcf"}, {sim::Technique::Esteem});
  const std::string bytes = encode_sweep_spec(spec);
  sim::SweepSpec out;
  for (const std::size_t cut : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(decode_sweep_spec(bytes.substr(0, cut), out)) << "cut=" << cut;
  }
  EXPECT_FALSE(decode_sweep_spec(bytes + "x", out));
  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(kWireVersion + 1);
  EXPECT_FALSE(decode_sweep_spec(wrong_version, out));
}

TEST(ServiceWire, V4PolicyFieldsRoundTripAndBadLockModeRejected) {
  sim::SweepSpec spec = tiny_sweep({"mcf"}, {sim::Technique::Esteem});
  spec.config.resilience.max_consecutive_errors = 7;
  spec.config.service.lock_mode = "lockfile";

  const std::string bytes = encode_sweep_spec(spec);
  sim::SweepSpec out;
  ASSERT_TRUE(decode_sweep_spec(bytes, out));
  EXPECT_EQ(out.config.resilience.max_consecutive_errors, 7u);
  EXPECT_EQ(out.config.service.lock_mode, "lockfile");

  // A corrupted enum string must be refused at decode time, not left for a
  // later validate() to throw on.
  const std::size_t pos = bytes.find("lockfile");
  ASSERT_NE(pos, std::string::npos);
  std::string corrupt = bytes;
  corrupt[pos] = 'x';
  EXPECT_FALSE(decode_sweep_spec(corrupt, out));

  // Same for a spec that was encoded with an unknown mode outright.
  spec.config.service.lock_mode = "flock";
  EXPECT_FALSE(decode_sweep_spec(encode_sweep_spec(spec), out));
}

// Totality fuzz: decode_sweep_spec must never crash, over-allocate, or hang
// on hostile bytes, and anything it accepts must be self-consistent (its
// re-encoding is a fixed point of encode∘decode). Deterministic seed — a
// failure here reproduces exactly.
TEST(ServiceWireFuzz, DecodeIsTotalAndAcceptedSpecsAreSelfConsistent) {
  sim::SweepSpec spec = tiny_sweep({"mcf", "gobmk+namd"},
                                   {sim::Technique::Esteem, sim::Technique::RefrintRPV});
  spec.workloads[1].benchmarks = {"gobmk", "namd"};
  spec.config.service.lock_mode = "lockfile";
  spec.config.resilience.max_consecutive_errors = 3;
  spec.config.observability.metrics_path = "m.om";
  const std::string bytes = encode_sweep_spec(spec);

  const auto check = [](const std::string& mutated) {
    sim::SweepSpec out;
    if (!decode_sweep_spec(mutated, out)) return;
    // Accepted: the decoded spec must survive its own round trip exactly.
    const std::string enc = encode_sweep_spec(out);
    sim::SweepSpec again;
    ASSERT_TRUE(decode_sweep_spec(enc, again));
    EXPECT_EQ(encode_sweep_spec(again), enc);
  };

  // Every prefix (covers all truncation points, including mid-field).
  sim::SweepSpec out;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(decode_sweep_spec(bytes.substr(0, n), out)) << "prefix " << n;
  }

  std::uint64_t state = 0x243F6A8885A308D3ULL;  // deterministic xorshift64
  const auto rng = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 700; ++i) {  // single-byte flips
    std::string m = bytes;
    m[rng() % m.size()] = static_cast<char>(rng());
    check(m);
  }
  for (int i = 0; i < 700; ++i) {  // flip then truncate
    std::string m = bytes;
    m[rng() % m.size()] = static_cast<char>(rng());
    check(m.substr(0, rng() % (m.size() + 1)));
  }
  for (int i = 0; i < 700; ++i) {  // insert junk at a random offset
    std::string m = bytes;
    m.insert(rng() % (m.size() + 1), 1, static_cast<char>(rng()));
    check(m);
  }
  // Length-prefix bombs: blast each plausible count field with huge values.
  // A flipped length byte must fail cleanly, not reserve() gigabytes.
  for (int i = 0; i < 200; ++i) {
    std::string m = bytes;
    const std::size_t at = rng() % (m.size() - 8);
    for (int b = 0; b < 8; ++b) m[at + b] = static_cast<char>(0xFF);
    check(m);
  }
}

// ---------------------------------------------------------------- lease table

TEST(LeaseTable, PlanOpenRoundTripAndForeignSweepRefused) {
  const TempDir dir("plan");
  const sim::SweepSpec spec = tiny_sweep({"mcf", "gobmk"}, {sim::Technique::RefrintRPV});

  LeaseTable planner;
  ASSERT_TRUE(planner.create(dir.str(), spec, "planner")) << planner.last_error();
  ASSERT_TRUE(planner.create(dir.str(), spec, "planner"));  // idempotent re-plan

  LeaseTable worker;
  ASSERT_TRUE(worker.open(dir.str(), "w1")) << worker.last_error();
  EXPECT_EQ(worker.n_rows(), 2u);
  EXPECT_EQ(worker.sweep_hash(), planner.sweep_hash());
  EXPECT_EQ(worker.spec().config.l2.geom.size_bytes, 512ULL * 1024);
  EXPECT_EQ(worker.row_workload(1).name, "gobmk");
  EXPECT_EQ(worker.row_technique(0), sim::Technique::RefrintRPV);

  // Same dir, different sweep (seed changed): must be refused, both ways.
  sim::SweepSpec other = spec;
  other.seed += 1;
  LeaseTable clash;
  EXPECT_FALSE(clash.create(dir.str(), other, "planner"));
  EXPECT_NE(clash.last_error().find("different sweep"), std::string::npos);

  const TableState st = worker.load_state();
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_EQ(st.rows.size(), 2u);
  EXPECT_FALSE(st.resolved());
}

TEST(LeaseTable, ClaimRenewExpiryAndSteal) {
  const TempDir dir("lease");
  // 1 workload x 2 techniques = 2 rows; default TTL 30 s, injected clocks.
  const sim::SweepSpec spec =
      tiny_sweep({"mcf"}, {sim::Technique::Esteem, sim::Technique::RefrintRPV});
  LeaseTable a, b;
  ASSERT_TRUE(a.create(dir.str(), spec, "worker-a"));
  ASSERT_TRUE(b.open(dir.str(), "worker-b"));

  const std::int64_t t0 = 1'000'000;
  const auto ca = a.claim(t0);
  ASSERT_TRUE(ca.has_value()) << a.last_error();
  EXPECT_EQ(ca->row, 0u);
  EXPECT_EQ(ca->generation, 1u);
  EXPECT_FALSE(ca->stolen);

  const auto cb = b.claim(t0);
  ASSERT_TRUE(cb.has_value()) << b.last_error();
  EXPECT_EQ(cb->row, 1u);  // Row 0 is leased; the claim moves on.
  EXPECT_NE(cb->lease_id, ca->lease_id);

  EXPECT_FALSE(b.claim(t0).has_value());  // Everything is leased and live.

  // A heartbeat at t0+25s extends row 0 to t0+55s...
  EXPECT_TRUE(a.renew(*ca, t0 + 25'000));
  // ...so at t0+40s the lease is still live and cannot be stolen (row 1's
  // un-renewed lease expired at t0+30s and is re-leased instead).
  const auto cb2 = b.claim(t0 + 40'000);
  ASSERT_TRUE(cb2.has_value());
  EXPECT_EQ(cb2->row, 1u);
  EXPECT_TRUE(cb2->stolen);
  EXPECT_EQ(cb2->generation, 2u);

  // At t0+60s row 0's renewed lease has lapsed too: stolen, generation 2.
  const auto steal = b.claim(t0 + 60'000);
  ASSERT_TRUE(steal.has_value());
  EXPECT_EQ(steal->row, 0u);
  EXPECT_TRUE(steal->stolen);
  EXPECT_EQ(steal->generation, 2u);

  // The original holder's renewal now fails — its lease is gone.
  EXPECT_FALSE(a.renew(*ca, t0 + 61'000));
}

TEST(LeaseTable, ZombieWriterIsFencedAndDuplicatesDedupe) {
  const TempDir dir("fence");
  const sim::SweepSpec spec = tiny_sweep({"mcf"}, {sim::Technique::RefrintRPV});
  LeaseTable a, b;
  ASSERT_TRUE(a.create(dir.str(), spec, "worker-a"));
  ASSERT_TRUE(b.open(dir.str(), "worker-b"));

  const std::int64_t t0 = 5'000'000;
  const auto ca = a.claim(t0);
  ASSERT_TRUE(ca.has_value());

  // A stalls past its TTL; B steals the row and completes it.
  const auto cb = b.claim(t0 + 31'000);
  ASSERT_TRUE(cb.has_value());
  EXPECT_EQ(cb->row, ca->row);
  EXPECT_EQ(b.complete(*cb, sample_comparison(0.0)), AppendStatus::kOk);

  // The zombie wakes up with a *different* result: the stale lease fences
  // the append — the journal must not gain a conflicting cell.
  EXPECT_EQ(a.complete(*ca, sample_comparison(99.0)), AppendStatus::kFenced);
  // With the *identical* result the row digest matches: deduplicated, and
  // also nothing written.
  EXPECT_EQ(a.complete(*ca, sample_comparison(0.0)), AppendStatus::kDuplicate);
  EXPECT_EQ(a.fail(*ca, sim::RunError{"mcf", "rpv", "late", "run"}),
            AppendStatus::kDuplicate);

  const TableState st = b.load_state();
  ASSERT_TRUE(st.ok);
  EXPECT_TRUE(st.resolved());
  EXPECT_EQ(st.completed, 1u);
  EXPECT_FALSE(st.conflict);
  EXPECT_EQ(st.rows[0].owner, "worker-b");
  std::size_t cells = 0;
  for (const auto& rec : resilience::JournalFile::load(LeaseTable::journal_path(dir.str()))
                             .records) {
    cells += rec.kind == "cell" ? 1 : 0;
  }
  EXPECT_EQ(cells, 1u);  // B's append only; the zombie never journaled.
}

TEST(LeaseTable, ConflictingDigestsAreAHardIntegrityError) {
  const TempDir dir("conflict");
  const sim::SweepSpec spec = tiny_sweep({"mcf"}, {sim::Technique::RefrintRPV});
  LeaseTable a;
  ASSERT_TRUE(a.create(dir.str(), spec, "worker-a"));
  const auto ca = a.claim(1000);
  ASSERT_TRUE(ca.has_value());
  ASSERT_EQ(a.complete(*ca, sample_comparison(0.0)), AppendStatus::kOk);

  // Forge what a mismatched binary would do: a second success cell for the
  // same row with a different digest (the append/append race the fence
  // cannot close is resolved at read time).
  const std::string data = sim::encode_comparisons({sample_comparison(99.0)});
  resilience::JournalFile raw;
  ASSERT_TRUE(raw.open(LeaseTable::journal_path(dir.str()), /*truncate=*/false));
  resilience::JournalRecord rec;
  rec.kind = "cell";
  rec.fields = {{"row", "0"},
                {"id", hex_u64(ca->lease_id)},
                {"gen", "1"},
                {"digest", hex_u64(sim::fingerprint_hash(data))},
                {"owner", "evil-twin"},
                {"data", to_hex(data)}};
  ASSERT_TRUE(raw.append(rec));
  raw.close();

  const TableState st = a.load_state();
  ASSERT_TRUE(st.ok);
  EXPECT_TRUE(st.conflict);

  CoordinatorOptions opts;
  opts.dir = dir.str();
  opts.quiet = true;
  const CollectResult collected = wait_and_collect(opts);
  EXPECT_FALSE(collected.ok);
  EXPECT_TRUE(collected.integrity_error);
  EXPECT_EQ(report_collect(collected, opts), kExitIntegrity);
}

TEST(LeaseTable, DamagedInteriorJournalLinesAreSkippedNotFatal) {
  const TempDir dir("damage");
  const sim::SweepSpec spec = tiny_sweep({"mcf"}, {sim::Technique::RefrintRPV});
  LeaseTable a;
  ASSERT_TRUE(a.create(dir.str(), spec, "worker-a"));
  const auto ca = a.claim(1000);
  ASSERT_TRUE(ca.has_value());

  // A crashed writer's torn fragment lands mid-file (no trailing newline
  // would glue it to the next line; here it sits on its own line).
  {
    std::ofstream out(LeaseTable::journal_path(dir.str()), std::ios::app | std::ios::binary);
    out << "{\"v\":1,\"kind\":\"cell\",\"row\":\"0\",\"dig\n";
  }
  ASSERT_EQ(a.complete(*ca, sample_comparison(0.0)), AppendStatus::kOk);

  const TableState st = a.load_state();
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_EQ(st.damaged_lines, 1u);
  EXPECT_TRUE(st.resolved());
  EXPECT_EQ(st.completed, 1u);
}

// ------------------------------------------------------- worker + coordinator

TEST(ServiceEndToEnd, WorkerResolvesSweepByteIdenticalToRunSweep) {
  const TempDir dir("e2e");
  const sim::SweepSpec spec = tiny_sweep({"gamess", "gobmk"}, {sim::Technique::RefrintRPV});

  std::string plan_error;
  ASSERT_TRUE(plan_service(dir.str(), spec, plan_error)) << plan_error;

  resilience::clear_shutdown();
  const std::string saved_memo = sim::RunCache::instance().disk_dir();
  WorkerOptions wopts;
  wopts.dir = dir.str();
  wopts.owner = "inproc";
  wopts.quiet = true;
  const WorkerReport rep = run_worker(wopts);
  sim::RunCache::instance().set_disk_dir(saved_memo);
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(rep.rows_completed, 2u);
  EXPECT_FALSE(rep.interrupted);

  CoordinatorOptions copts;
  copts.dir = dir.str();
  copts.csv_path = (dir.path / "service.csv").string();
  copts.quiet = true;
  const CollectResult collected = wait_and_collect(copts);
  ASSERT_TRUE(collected.ok) << collected.error;

  sim::RunCache::instance().clear();
  const sim::SweepResult direct = sim::run_sweep(spec);
  const std::string direct_csv = (dir.path / "direct.csv").string();
  sim::write_csv(direct, direct_csv);

  EXPECT_EQ(read_file(copts.csv_path), read_file(direct_csv));
  EXPECT_EQ(sim::figure_report(collected.result, "sweep"),
            sim::figure_report(direct, "sweep"));
  EXPECT_EQ(report_collect(collected, CoordinatorOptions{}), 0);
}

// lock_mode=lockfile routes every journal append through the O_EXCL lock
// file (the NFS-safe fallback). Same sweep, same bytes — and no lock file
// left behind once the worker exits.
TEST(ServiceEndToEnd, LockfileModeResolvesByteIdenticalToRunSweep) {
  const TempDir dir("lockfile-e2e");
  sim::SweepSpec spec = tiny_sweep({"gamess", "gobmk"}, {sim::Technique::RefrintRPV});
  spec.config.service.lock_mode = "lockfile";

  std::string plan_error;
  ASSERT_TRUE(plan_service(dir.str(), spec, plan_error)) << plan_error;

  resilience::clear_shutdown();
  const std::string saved_memo = sim::RunCache::instance().disk_dir();
  WorkerOptions wopts;
  wopts.dir = dir.str();
  wopts.owner = "inproc-lockfile";
  wopts.quiet = true;
  const WorkerReport rep = run_worker(wopts);
  sim::RunCache::instance().set_disk_dir(saved_memo);
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(rep.rows_completed, 2u);
  EXPECT_FALSE(fs::exists(LeaseTable::journal_path(dir.str()) + ".lock"));

  CoordinatorOptions copts;
  copts.dir = dir.str();
  copts.csv_path = (dir.path / "service.csv").string();
  copts.quiet = true;
  const CollectResult collected = wait_and_collect(copts);
  ASSERT_TRUE(collected.ok) << collected.error;

  sim::RunCache::instance().clear();
  const sim::SweepResult direct = sim::run_sweep(spec);
  const std::string direct_csv = (dir.path / "direct.csv").string();
  sim::write_csv(direct, direct_csv);
  EXPECT_EQ(read_file(copts.csv_path), read_file(direct_csv));
}

TEST(ServiceEndToEnd, FailedWorkloadsMirrorRunSweepErrors) {
  const TempDir dir("errors");
  const sim::SweepSpec spec =
      tiny_sweep({"gamess", "no-such-benchmark"}, {sim::Technique::RefrintRPV});

  std::string plan_error;
  ASSERT_TRUE(plan_service(dir.str(), spec, plan_error)) << plan_error;

  resilience::clear_shutdown();
  const std::string saved_memo = sim::RunCache::instance().disk_dir();
  WorkerOptions wopts;
  wopts.dir = dir.str();
  wopts.owner = "inproc";
  wopts.quiet = true;
  const WorkerReport rep = run_worker(wopts);
  sim::RunCache::instance().set_disk_dir(saved_memo);
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(rep.rows_completed, 1u);
  EXPECT_EQ(rep.rows_failed, 1u);

  CoordinatorOptions copts;
  copts.dir = dir.str();
  copts.quiet = true;
  const CollectResult collected = wait_and_collect(copts);
  ASSERT_TRUE(collected.ok) << collected.error;

  sim::RunCache::instance().clear();
  const sim::SweepResult direct = sim::run_sweep(spec);
  ASSERT_EQ(collected.result.errors.size(), direct.errors.size());
  ASSERT_EQ(collected.result.errors.size(), 1u);
  EXPECT_EQ(collected.result.errors[0].workload, direct.errors[0].workload);
  EXPECT_EQ(collected.result.errors[0].technique, direct.errors[0].technique);
  EXPECT_EQ(collected.result.errors[0].what, direct.errors[0].what);
  EXPECT_EQ(collected.result.errors[0].phase, direct.errors[0].phase);
  EXPECT_EQ(sim::figure_report(collected.result, "sweep"),
            sim::figure_report(direct, "sweep"));
  EXPECT_EQ(report_collect(collected, CoordinatorOptions{}), 3);
}

// --------------------------------------------------------- observability plane

// RAII guard: the hub is process-global; leave it off for later tests.
struct TelemetryGuard {
  ~TelemetryGuard() { telemetry::Telemetry::instance().configure({}); }
};

TEST(Observer, SidecarWriteLoadRoundTripAndEventCap) {
  const TempDir dir("observer");
  TelemetryGuard guard;
  telemetry::TelemetryConfig tcfg;
  tcfg.counters = true;
  telemetry::Telemetry::instance().configure(tcfg);
  // Private metric names: the registry is process-global and other tests in
  // this binary tick memo.* themselves.
  telemetry::registry().counter("obs.test.hits").add(3);
  telemetry::registry().counter("obs.test.misses").add(1);

  ObservabilityConfig ocfg;
  ocfg.flush_ms = 1;
  ocfg.events_max = 4;
  Observer obs;
  ASSERT_TRUE(obs.open(dir.str(), "w one", ocfg)) << obs.last_error();
  EXPECT_TRUE(obs.enabled());

  const double dropped_before = telemetry::registry().value("observer.events_dropped");
  obs.event("info", "worker started");
  obs.flush_snapshot();
  telemetry::registry().counter("obs.test.hits").add(5);
  obs.flush_snapshot();
  obs.event("warn", "spooky", 0xAB, 2);
  obs.event("info", "third");
  obs.event("info", "fourth (last under the cap)");
  obs.event("info", "fifth: dropped");  // events_max = 4

  const auto fleet = load_worker_telemetry(dir.str());
  ASSERT_EQ(fleet.size(), 1u);
  const WorkerTelemetry& wt = fleet[0];
  EXPECT_EQ(wt.owner, "w one");  // from the snap source, not the sanitized file name
  EXPECT_EQ(wt.damaged_lines, 0u);
  ASSERT_EQ(wt.snapshots.size(), 2u);
  ASSERT_EQ(wt.events.size(), 4u);
  EXPECT_EQ(wt.events[1].severity, "warn");
  EXPECT_EQ(wt.events[1].lease_id, 0xABu);
  EXPECT_EQ(wt.events[1].row, 2u);
  EXPECT_EQ(telemetry::registry().value("observer.events_dropped"), dropped_before + 1.0);

  // Snapshots carry the registry as it was at each flush, exactly.
  auto raw_of = [](const telemetry::Snapshot& s,
                   const std::string& name) -> std::uint64_t {
    for (const auto& m : s.metrics) {
      if (m.name == name) return m.raw;
    }
    return ~0ULL;
  };
  EXPECT_EQ(raw_of(wt.snapshots[0], "obs.test.hits"), 3u);
  EXPECT_EQ(raw_of(wt.snapshots[1], "obs.test.hits"), 8u);
  EXPECT_EQ(raw_of(wt.snapshots[1], "obs.test.misses"), 1u);
}

TEST(Observer, TornSidecarRecordsAreSkippedAndCounted) {
  const TempDir dir("torn-sidecar");
  TelemetryGuard guard;
  telemetry::TelemetryConfig tcfg;
  tcfg.counters = true;
  telemetry::Telemetry::instance().configure(tcfg);
  telemetry::registry().counter("svc.rows").add(1);

  const std::string path = sidecar_path(dir.str(), "w2");
  {
    ObservabilityConfig ocfg;
    ocfg.flush_ms = 1;
    Observer obs;
    ASSERT_TRUE(obs.open(dir.str(), "w2", ocfg)) << obs.last_error();
    obs.flush_snapshot();
    // A crashed neighbour's fragment lands mid-file on its own line...
    {
      std::ofstream raw(path, std::ios::app | std::ios::binary);
      raw << "{\"v\":1,\"kind\":\"snap\",\"t\":\"1\",\"da\n";
    }
    obs.flush_snapshot();
  }
  auto fleet = load_worker_telemetry(dir.str());
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet[0].snapshots.size(), 2u);
  EXPECT_EQ(fleet[0].damaged_lines, 1u);

  // ...and the worker dying mid-snapshot tears the tail: the torn record is
  // skipped and counted, the previous snapshot stands.
  fs::resize_file(path, fs::file_size(path) - 9);
  fleet = load_worker_telemetry(dir.str());
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet[0].snapshots.size(), 1u);
  EXPECT_EQ(fleet[0].damaged_lines, 2u);
}

TEST(FleetStatusView, StatusJsonHasVersionedFixedKeyOrder) {
  // The exact machine contract of `--status --json` (and --serve): one line,
  // versioned, keys in this order. Changing it is a schema change — bump "v".
  FleetStatus fs;
  fs.sweep_hash = 0xABC;
  fs.now_ms = 5000;
  fs.rows = 4;
  fs.completed = 2;
  fs.failed = 1;
  fs.leased = 1;
  fs.conflict = false;
  fs.damaged_lines = 0;
  fs.eta_ms = 1500;
  WorkerHealth h;
  h.owner = "w-1";
  h.alive = true;
  h.heartbeat_age_ms = 120;
  h.rows_done = 2;
  h.rows_failed = 1;
  h.rows_stolen = 1;
  h.memo_hit_rate = 0.5;
  h.events = 3;
  fs.workers.push_back(h);
  resilience::EventRecord ev;
  ev.t_ms = 4000;
  ev.severity = "warn";
  ev.source = "w-1";
  ev.message = "restart \"now\"";
  ev.lease_id = 0x1F;
  fs.recent_events.push_back(ev);

  EXPECT_EQ(
      status_json(fs),
      "{\"v\":1,\"sweep\":\"0000000000000abc\",\"now_ms\":5000,\"rows\":4,"
      "\"completed\":2,\"failed\":1,\"pending\":1,\"leased\":1,\"conflict\":false,"
      "\"damaged_lines\":0,\"eta_ms\":1500,\"workers\":[{\"owner\":\"w-1\","
      "\"alive\":true,\"heartbeat_age_ms\":120,\"done\":2,\"failed\":1,"
      "\"stolen\":1,\"memo_hit_rate\":0.5000,\"events\":3}],\"events\":["
      "{\"t\":4000,\"sev\":\"warn\",\"src\":\"w-1\",\"lease\":\"000000000000001f\","
      "\"row\":-1,\"msg\":\"restart \\\"now\\\"\"}]}");

  // Unknown rate and unknown ETA keep their -1 sentinels.
  fs.workers[0].memo_hit_rate = -1.0;
  fs.eta_ms = -1;
  const std::string js = status_json(fs);
  EXPECT_NE(js.find("\"memo_hit_rate\":-1"), std::string::npos);
  EXPECT_NE(js.find("\"eta_ms\":-1"), std::string::npos);
}

TEST(FleetStatusView, EtaAndLivenessFollowTheJournal) {
  const TempDir dir("eta");
  const sim::SweepSpec spec =
      tiny_sweep({"mcf"}, {sim::Technique::Esteem, sim::Technique::RefrintRPV});
  LeaseTable a;
  ASSERT_TRUE(a.create(dir.str(), spec, "w-a"));
  const std::int64_t t0 = LeaseTable::wall_ms();
  const auto ca = a.claim(t0);
  ASSERT_TRUE(ca.has_value());
  ASSERT_EQ(a.complete(*ca, sample_comparison(0.0)), AppendStatus::kOk);
  const TableState st = a.load_state();

  // Seen recently: alive, and one timed row yields a finite ETA estimate.
  const FleetStatus live = collect_fleet_status(a, st, LeaseTable::wall_ms());
  EXPECT_EQ(live.rows, 2u);
  EXPECT_EQ(live.completed, 1u);
  ASSERT_EQ(live.workers.size(), 1u);
  EXPECT_EQ(live.workers[0].owner, "w-a");
  EXPECT_TRUE(live.workers[0].alive);
  EXPECT_EQ(live.workers[0].rows_done, 1u);
  EXPECT_GE(live.eta_ms, 0);

  // Past the TTL with a row still pending: nobody alive, ETA unknown.
  const std::int64_t ttl = spec.config.service.lease_ttl_ms;
  const FleetStatus stale = collect_fleet_status(a, st, LeaseTable::wall_ms() + ttl + 60'000);
  ASSERT_EQ(stale.workers.size(), 1u);
  EXPECT_FALSE(stale.workers[0].alive);
  EXPECT_GE(stale.workers[0].heartbeat_age_ms, ttl);
  EXPECT_EQ(stale.eta_ms, -1);
  EXPECT_NE(progress_line(stale).find("eta unknown"), std::string::npos);
}

TEST(ServiceEndToEnd, FleetStatusAndMergedOutputsFromObservedRun) {
  const TempDir dir("fleet");
  TelemetryGuard guard;
  sim::SweepSpec spec = tiny_sweep({"gamess", "gobmk"}, {sim::Technique::RefrintRPV});
  spec.config.observability.flush_ms = 10;

  std::string plan_error;
  ASSERT_TRUE(plan_service(dir.str(), spec, plan_error)) << plan_error;

  resilience::clear_shutdown();
  const std::string saved_memo = sim::RunCache::instance().disk_dir();
  WorkerOptions wopts;
  wopts.dir = dir.str();
  wopts.owner = "inproc-obs";
  wopts.quiet = true;
  const WorkerReport rep = run_worker(wopts);
  sim::RunCache::instance().set_disk_dir(saved_memo);
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(rep.rows_completed, 2u);

  LeaseTable table;
  ASSERT_TRUE(table.open(dir.str(), "status"));
  const TableState st = table.load_state();
  ASSERT_TRUE(st.ok) << st.error;
  const FleetStatus fleet = collect_fleet_status(table, st, LeaseTable::wall_ms());
  EXPECT_EQ(fleet.rows, 2u);
  EXPECT_EQ(fleet.completed, 2u);
  EXPECT_EQ(fleet.eta_ms, 0);  // resolved
  EXPECT_EQ(fleet.damaged_lines, 0u);
  ASSERT_EQ(fleet.workers.size(), 1u);
  const WorkerHealth& wh = fleet.workers[0];
  EXPECT_EQ(wh.owner, "inproc-obs");
  EXPECT_TRUE(wh.alive);
  EXPECT_EQ(wh.rows_done, 2u);
  EXPECT_EQ(wh.rows_failed, 0u);
  EXPECT_EQ(wh.rows_stolen, 0u);
  EXPECT_GE(wh.memo_hit_rate, 0.0);  // sidecar snapshots carried memo counters
  EXPECT_GE(wh.events, 4u);          // started, claimed/completed x2, exiting
  EXPECT_FALSE(fleet.recent_events.empty());

  const std::string js = status_json(fleet);
  EXPECT_EQ(js.rfind("{\"v\":1,\"sweep\":\"", 0), 0u);
  EXPECT_NE(js.find("\"workers\":[{\"owner\":\"inproc-obs\""), std::string::npos);
  EXPECT_NE(progress_line(fleet).find("[fleet] 2/2 rows resolved"), std::string::npos);

  // Merged OpenMetrics from the sidecars passes the strict checker.
  const std::string metrics_path = (dir.path / "metrics.om").string();
  std::string error;
  ASSERT_TRUE(write_fleet_metrics(dir.str(), metrics_path, error)) << error;
  const std::string exposition = read_file(metrics_path);
  EXPECT_TRUE(telemetry::check_openmetrics(exposition, error)) << error;
  EXPECT_NE(exposition.find("esteem_worker_rows_completed"), std::string::npos);

  // Merged trace: coordinator is pid 0, the single worker pid 1, no pid 2,
  // and every row span resolved "done".
  const std::string trace_path = (dir.path / "trace.merged.json").string();
  ASSERT_TRUE(write_merged_trace(dir.str(), trace_path, error)) << error;
  const std::string trace = read_file(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":1"), std::string::npos);
  EXPECT_EQ(trace.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(trace.find("coordinator (fleet)"), std::string::npos);
  EXPECT_NE(trace.find("inproc-obs"), std::string::npos);
  EXPECT_NE(trace.find("rows_resolved"), std::string::npos);
  EXPECT_NE(trace.find("\"outcome\":\"done\""), std::string::npos);
  EXPECT_EQ(trace.find("\"outcome\":\"lost\""), std::string::npos);
}

TEST(FleetStatusView, MetricsWriterExplainsMissingSidecars) {
  const TempDir dir("no-sidecars");
  const sim::SweepSpec spec = tiny_sweep({"mcf"}, {sim::Technique::Esteem});
  std::string plan_error;
  ASSERT_TRUE(plan_service(dir.str(), spec, plan_error)) << plan_error;
  std::string error;
  EXPECT_FALSE(write_fleet_metrics(dir.str(), (dir.path / "m.om").string(), error));
  EXPECT_NE(error.find("flush_ms"), std::string::npos);
}

// ----------------------------------------------------------------- chaos gate

/// Records every injection point consulted; injects nothing.
class RecordingPlan final : public chaos::FaultPlan {
 public:
  explicit RecordingPlan(std::vector<std::string>& seen) : seen_(seen) {}
  chaos::Injection at(const std::string& point) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    seen_.push_back(point);
    return {};
  }

 private:
  std::mutex mutex_;
  std::vector<std::string>& seen_;
};

TEST(ServiceChaos, AfterClaimCrashpointFiresOncePerClaim) {
  // The explorer derives a crash leg from every registered kCrash point.
  bool registered = false;
  for (const chaos::PointInfo& p : chaos::injection_points()) {
    if (std::string(p.name) == "worker.crash.after_claim") {
      registered = p.kind == chaos::OpKind::kCrash;
    }
  }
  EXPECT_TRUE(registered);

  const TempDir dir("after-claim");
  const sim::SweepSpec spec = tiny_sweep({"gamess", "gobmk"}, {sim::Technique::RefrintRPV});
  std::string plan_error;
  ASSERT_TRUE(plan_service(dir.str(), spec, plan_error)) << plan_error;

  resilience::clear_shutdown();
  const std::string saved_memo = sim::RunCache::instance().disk_dir();
  std::vector<std::string> seen;
  chaos::install_plan(std::make_unique<RecordingPlan>(seen));
  WorkerOptions wopts;
  wopts.dir = dir.str();
  wopts.owner = "recorder";
  wopts.quiet = true;
  const WorkerReport rep = run_worker(wopts);
  chaos::disarm();
  sim::RunCache::instance().set_disk_dir(saved_memo);
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(rep.rows_completed, 2u);
  // Hit i is the (i+1)-th claim, so "@1=crash" dies holding the second lease.
  EXPECT_EQ(std::count(seen.begin(), seen.end(), "worker.crash.after_claim"), 2);
}

}  // namespace
}  // namespace esteem::service
