#include "sim/run_cache.hpp"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <utility>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "chaos/file_ops.hpp"
#include "common/bytes.hpp"
#include "common/env.hpp"
#include "resilience/crc32.hpp"
#include "telemetry/telemetry.hpp"

namespace esteem::sim {

namespace {

/// Mirrors a memo lookup into the telemetry layer: `memo.hits`/`memo.misses`
/// counters plus a wall-clock instant on the requesting worker's trace row.
/// No-op (one relaxed load) when telemetry is off.
void note_lookup(bool hit, std::uint64_t hash) {
  if (!telemetry::active()) return;
  telemetry::registry().counter(hit ? "memo.hits" : "memo.misses").add();
  if (telemetry::TraceEmitter* tr = telemetry::trace_sink()) {
    char args[64];
    std::snprintf(args, sizeof args, "{\"key\":\"%016llx\"}",
                  static_cast<unsigned long long>(hash));
    tr->instant(telemetry::TraceEmitter::kWallPid, telemetry::TraceEmitter::wall_tid(),
                hit ? "memo hit" : "memo miss", telemetry::TraceEmitter::wall_now_us(),
                args);
  }
}

}  // namespace

namespace {

constexpr std::uint64_t kMemoMagic = 0x314F4D454D534525ULL;  // "%ESMEMO1"
// Bump whenever the fingerprint layout, the serialized RunOutcome layout, or
// simulator behaviour changes: stale memo files then read as misses.
// v2: EnergyScaleConfig joined the fingerprint.
// v3: CRC32 over the payload joined the header (self-healing memo files).
// v4: [sampling] joined the fingerprint; SamplingEstimates joined the outcome.
constexpr std::uint32_t kMemoFormatVersion = 4;

// Memo file layout: magic u64 | version u32 | crc u32 | payload, with the
// two u32s in the shared 8-byte encoding — a 24-byte header, then the
// CRC-protected payload (fingerprint string + serialized outcome).
constexpr std::size_t kMemoHeaderBytes = 24;

void write_estimate(ByteWriter& w, const sampling::Estimate& e) {
  w.f64(e.value);
  w.f64(e.half_ci);
}

bool read_estimate(ByteReader& rd, sampling::Estimate& e) {
  return rd.f64(e.value) && rd.f64(e.half_ci);
}

void write_outcome(ByteWriter& w, const RunOutcome& o) {
  const cpu::RawRunResult& r = o.raw;
  w.u64(r.ipc.size());
  for (double v : r.ipc) w.f64(v);
  w.u64(r.instr_per_core);
  w.u64(r.total_instructions);
  w.u64(r.wall_cycles);

  const energy::EnergyCounters& c = r.counters;
  w.f64(c.seconds);
  w.f64(c.fa_seconds);
  w.u64(c.l2_hits);
  w.u64(c.l2_misses);
  w.u64(c.refreshes);
  w.u64(c.mm_accesses);
  w.u64(c.transitions);
  w.u64(c.ecc_corrections);

  const cpu::MemorySystemStats& m = r.mem_stats;
  w.u64(m.demand_l2_hits);
  w.u64(m.demand_l2_misses);
  w.u64(m.l2_writeback_accesses);
  w.u64(m.mm_writebacks);
  w.u64(m.reconfig_transitions);
  w.u64(m.reconfig_writebacks);

  w.u64(r.refreshes);
  w.u64(r.demand_misses);
  w.f64(r.avg_active_ratio);

  const edram::FaultCounters& f = r.faults;
  w.u64(f.scans);
  w.u64(f.corrected_lines);
  w.u64(f.corrected_reads);
  w.u64(f.refetches);
  w.u64(f.data_loss_events);
  w.u64(f.disabled_lines);
  w.u64(r.disabled_slots);

  w.u64(r.timeline.size());
  for (const cpu::IntervalSample& s : r.timeline) {
    w.u64(s.cycle);
    w.f64(s.active_ratio);
    w.u64(s.module_ways.size());
    for (std::uint32_t ways : s.module_ways) w.u32(ways);
  }

  const energy::EnergyBreakdown& e = o.energy;
  w.f64(e.leak_l2_j);
  w.f64(e.dyn_l2_j);
  w.f64(e.refresh_l2_j);
  w.f64(e.ecc_l2_j);
  w.f64(e.mm_j);
  w.f64(e.algo_j);

  const sampling::SamplingEstimates& est = o.estimates;
  w.u8(est.enabled ? 1 : 0);
  if (est.enabled) {
    w.u64(est.windows);
    w.u64(est.window_instr);
    w.u64(est.detailed_instr);
    write_estimate(w, est.wall_cycles);
    w.u64(est.ipc.size());
    for (const sampling::Estimate& v : est.ipc) write_estimate(w, v);
    write_estimate(w, est.l2_hits);
    write_estimate(w, est.l2_misses);
    write_estimate(w, est.demand_hits);
    write_estimate(w, est.demand_misses);
    write_estimate(w, est.l2_writeback_accesses);
    write_estimate(w, est.mm_accesses);
    write_estimate(w, est.mm_writebacks);
    write_estimate(w, est.corrected_reads);
    write_estimate(w, est.refreshes);
    w.f64(est.fa_fraction);
    write_estimate(w, est.energy_j);
  }
}

bool read_outcome(ByteReader& rd, RunOutcome& o) {
  cpu::RawRunResult& r = o.raw;
  std::uint64_t n = 0;
  if (!rd.u64(n)) return false;
  r.ipc.resize(n);
  for (double& v : r.ipc) {
    if (!rd.f64(v)) return false;
  }
  bool ok = rd.u64(r.instr_per_core) && rd.u64(r.total_instructions) &&
            rd.u64(r.wall_cycles);

  energy::EnergyCounters& c = r.counters;
  ok = ok && rd.f64(c.seconds) && rd.f64(c.fa_seconds) && rd.u64(c.l2_hits) &&
       rd.u64(c.l2_misses) && rd.u64(c.refreshes) && rd.u64(c.mm_accesses) &&
       rd.u64(c.transitions) && rd.u64(c.ecc_corrections);

  cpu::MemorySystemStats& m = r.mem_stats;
  ok = ok && rd.u64(m.demand_l2_hits) && rd.u64(m.demand_l2_misses) &&
       rd.u64(m.l2_writeback_accesses) && rd.u64(m.mm_writebacks) &&
       rd.u64(m.reconfig_transitions) && rd.u64(m.reconfig_writebacks);

  ok = ok && rd.u64(r.refreshes) && rd.u64(r.demand_misses) &&
       rd.f64(r.avg_active_ratio);

  edram::FaultCounters& f = r.faults;
  ok = ok && rd.u64(f.scans) && rd.u64(f.corrected_lines) &&
       rd.u64(f.corrected_reads) && rd.u64(f.refetches) &&
       rd.u64(f.data_loss_events) && rd.u64(f.disabled_lines) &&
       rd.u64(r.disabled_slots);
  if (!ok) return false;

  if (!rd.u64(n)) return false;
  r.timeline.resize(n);
  for (cpu::IntervalSample& s : r.timeline) {
    std::uint64_t ways = 0;
    if (!rd.u64(s.cycle) || !rd.f64(s.active_ratio) || !rd.u64(ways)) return false;
    s.module_ways.resize(ways);
    for (std::uint32_t& w : s.module_ways) {
      if (!rd.u32(w)) return false;
    }
  }

  energy::EnergyBreakdown& e = o.energy;
  ok = rd.f64(e.leak_l2_j) && rd.f64(e.dyn_l2_j) && rd.f64(e.refresh_l2_j) &&
       rd.f64(e.ecc_l2_j) && rd.f64(e.mm_j) && rd.f64(e.algo_j);
  if (!ok) return false;

  sampling::SamplingEstimates& est = o.estimates;
  std::uint8_t sampled = 0;
  if (!rd.u8(sampled)) return false;
  est.enabled = sampled != 0;
  if (est.enabled) {
    ok = rd.u64(est.windows) && rd.u64(est.window_instr) &&
         rd.u64(est.detailed_instr) && read_estimate(rd, est.wall_cycles);
    if (!ok || !rd.u64(n)) return false;
    est.ipc.resize(n);
    for (sampling::Estimate& v : est.ipc) {
      if (!read_estimate(rd, v)) return false;
    }
    ok = read_estimate(rd, est.l2_hits) && read_estimate(rd, est.l2_misses) &&
         read_estimate(rd, est.demand_hits) &&
         read_estimate(rd, est.demand_misses) &&
         read_estimate(rd, est.l2_writeback_accesses) &&
         read_estimate(rd, est.mm_accesses) &&
         read_estimate(rd, est.mm_writebacks) &&
         read_estimate(rd, est.corrected_reads) &&
         read_estimate(rd, est.refreshes) && rd.f64(est.fa_fraction) &&
         read_estimate(rd, est.energy_j);
    if (!ok) return false;
  }
  return rd.done();
}

std::filesystem::path memo_path(const std::string& dir, std::uint64_t hash) {
  char name[40];
  std::snprintf(name, sizeof(name), "esteem-memo-%016llx.bin",
                static_cast<unsigned long long>(hash));
  return std::filesystem::path(dir) / name;
}

}  // namespace

std::uint64_t outcome_digest(const RunOutcome& outcome) {
  ByteWriter w;
  write_outcome(w, outcome);
  return fingerprint_hash(w.take());
}

std::string run_spec_fingerprint(const RunSpec& spec) {
  ByteWriter w;
  w.u32(kMemoFormatVersion);

  const SystemConfig& cfg = spec.config;
  w.u32(cfg.ncores);
  w.f64(cfg.freq_ghz);
  w.u64(cfg.l1.geom.size_bytes);
  w.u32(cfg.l1.geom.ways);
  w.u32(cfg.l1.geom.line_bytes);
  w.u32(cfg.l1.latency_cycles);
  w.u64(cfg.l2.geom.size_bytes);
  w.u32(cfg.l2.geom.ways);
  w.u32(cfg.l2.geom.line_bytes);
  w.u32(cfg.l2.latency_cycles);
  w.u32(cfg.l2.banks);
  w.u32(cfg.l2.access_occupancy_cycles);
  w.f64(cfg.l2.refresh_occupancy_cycles);
  w.f64(cfg.l2.queue_pressure);
  w.u32(cfg.mem.latency_cycles);
  w.f64(cfg.mem.bandwidth_gbps);
  w.f64(cfg.edram.retention_us);
  w.u32(cfg.edram.rpv_phases);
  w.u32(cfg.edram.ecc_correctable);
  w.f64(cfg.edram.ecc_target_line_failure);
  w.f64(cfg.edram.decay_interval_retentions);
  w.f64(cfg.energy.refresh_scale);
  w.f64(cfg.energy.dyn_scale);
  w.f64(cfg.energy.leak_scale);
  w.f64(cfg.esteem.alpha);
  w.u32(cfg.esteem.a_min);
  w.u32(cfg.esteem.modules);
  w.u64(cfg.esteem.interval_cycles);
  w.u32(cfg.esteem.sampling_ratio);
  w.u8(cfg.esteem.nonlru_guard ? 1 : 0);
  w.u64(cfg.esteem.min_leader_samples);
  w.f64(cfg.esteem.history_weight);
  w.u32(cfg.esteem.max_way_delta);
  w.u32(cfg.esteem.hysteresis_intervals);
  w.u32(cfg.esteem.shrink_confirm_intervals);
  w.u8(cfg.faults.enabled ? 1 : 0);
  w.u64(cfg.faults.seed);
  w.f64(cfg.faults.median_multiple);
  w.f64(cfg.faults.sigma);
  w.u32(cfg.faults.correction_latency_cycles);
  w.u32(cfg.faults.disable_threshold);
  w.u32(cfg.faults.max_tracked_extension);
  // [sampling] is semantic: it decides whether a run is exhaustive or
  // estimated, and with what schedule — different bytes out.
  w.u8(cfg.sampling.enabled ? 1 : 0);
  w.u64(cfg.sampling.window_instr);
  w.u64(cfg.sampling.detail_warm_instr);
  w.u64(cfg.sampling.ff_warm_instr);
  w.u64(cfg.sampling.cold_warm_instr);
  w.u64(cfg.sampling.period_instr);

  w.u32(static_cast<std::uint32_t>(spec.technique));
  w.str(spec.workload.name);
  w.u64(spec.workload.benchmarks.size());
  for (const std::string& b : spec.workload.benchmarks) w.str(b);
  w.u64(spec.seed);
  w.u64(spec.instr_per_core);
  w.u64(spec.warmup_instr_per_core);
  w.u8(spec.record_timeline ? 1 : 0);
  return w.take();
}

std::uint64_t fingerprint_hash(const std::string& fingerprint) {
  return fnv1a(kFnv1aBasis, fingerprint);
}

std::shared_ptr<const RunOutcome> run_experiment_cached(const RunSpec& spec) {
  return RunCache::instance().get_or_run(spec);
}

RunCache& RunCache::instance() {
  static RunCache* cache = [] {
    auto* c = new RunCache();
    c->set_disk_dir(env_str("ESTEEM_MEMO_DIR", ""));
    return c;
  }();
  return *cache;
}

std::shared_ptr<const RunOutcome> RunCache::get_or_run(const RunSpec& spec) {
  const std::string fp = run_spec_fingerprint(spec);
  std::promise<OutcomePtr> promise;
  std::shared_future<OutcomePtr> future;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(fp);
    if (it != map_.end()) {
      ++stats_.hits;
      future = it->second;
    } else {
      ++stats_.misses;
      owner = true;
      future = promise.get_future().share();
      map_.emplace(fp, future);
    }
  }
  if (telemetry::active()) note_lookup(/*hit=*/!owner, fingerprint_hash(fp));
  if (!owner) return future.get();  // blocks only while the owner computes

  try {
    const std::uint64_t hash = fingerprint_hash(fp);
    OutcomePtr outcome;
    if (!load_from_disk(hash, fp, outcome)) {
      outcome = std::make_shared<const RunOutcome>(run_experiment(spec));
      store_to_disk(hash, fp, *outcome);
    }
    promise.set_value(outcome);
    return outcome;
  } catch (...) {
    // Leave failures uncached: a retry recomputes instead of replaying the
    // stored exception forever. Waiters already holding the future still
    // observe this failure.
    promise.set_exception(std::current_exception());
    const std::lock_guard<std::mutex> lock(mutex_);
    map_.erase(fp);
    throw;
  }
}

void RunCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  stats_ = {};
}

void RunCache::reset_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_ = {};
}

void RunCache::set_disk_dir(std::string dir) {
  const std::lock_guard<std::mutex> lock(mutex_);
  disk_dir_ = std::move(dir);
}

std::string RunCache::disk_dir() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_dir_;
}

RunCacheStats RunCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t RunCache::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

bool RunCache::load_from_disk(std::uint64_t hash, const std::string& fingerprint,
                              OutcomePtr& out) const {
  const std::string dir = disk_dir();
  if (dir.empty()) return false;

  std::ifstream in(memo_path(dir, hash), std::ios::binary);
  if (!in.good()) return false;  // no file: a plain miss, nothing to heal
  std::string buf((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();

  ByteReader rd(buf);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t stored_crc = 0;
  if (!rd.u64(magic) || magic != kMemoMagic) {
    quarantine_file(dir, hash, "bad magic");
    return false;
  }
  if (!rd.u32(version)) {
    quarantine_file(dir, hash, "truncated header");
    return false;
  }
  if (version != kMemoFormatVersion) {
    // A stale format is expected after an upgrade, not damage: quarantine
    // still applies (the file can never load again) but the reason says so.
    quarantine_file(dir, hash, "stale format version");
    return false;
  }
  if (!rd.u32(stored_crc)) {
    quarantine_file(dir, hash, "truncated header");
    return false;
  }
  if (resilience::crc32(buf.data() + kMemoHeaderBytes, buf.size() - kMemoHeaderBytes) !=
      stored_crc) {
    quarantine_file(dir, hash, "payload checksum mismatch");
    return false;
  }

  std::string stored_fp;
  auto outcome = std::make_shared<RunOutcome>();
  if (!rd.str(stored_fp) || !read_outcome(rd, *outcome)) {
    // The CRC matched, so the bytes are what the writer produced — a decode
    // failure here means a writer/reader skew within one format version.
    quarantine_file(dir, hash, "undecodable payload");
    return false;
  }
  if (stored_fp != fingerprint) return false;  // hash collision: honest miss

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_hits;
  }
  out = std::move(outcome);
  return true;
}

void RunCache::quarantine_file(const std::string& dir, std::uint64_t hash,
                               const char* reason) const {
  const std::filesystem::path bad = memo_path(dir, hash);
  const std::filesystem::path corral = std::filesystem::path(dir) / "corrupt";
  std::error_code ec;
  std::filesystem::create_directories(corral, ec);
  if (!ec) {
    // Unique destination per quarantining process: two processes (or two
    // quarantines of a rewritten file) must never race to the same target —
    // a pid+counter suffix keeps every piece of evidence and turns the
    // collision into two distinct files instead of an overwrite or an error.
    static std::atomic<std::uint64_t> quarantine_seq{0};
    const std::uint64_t seq = quarantine_seq.fetch_add(1, std::memory_order_relaxed);
#if defined(_WIN32)
    const long pid = 0;
#else
    const long pid = static_cast<long>(::getpid());
#endif
    char suffix[48];
    std::snprintf(suffix, sizeof suffix, ".%ld-%llu", pid,
                  static_cast<unsigned long long>(seq));
    std::filesystem::rename(bad, corral / (bad.filename().string() + suffix), ec);
  }
  if (ec) std::filesystem::remove(bad, ec);  // can't move it aside: drop it
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.quarantined;
  }
  if (telemetry::active()) {
    telemetry::registry().counter("memo.quarantined").add();
  }
  std::fprintf(stderr, "memo: quarantined %s (%s); recomputing\n",
               bad.filename().string().c_str(), reason);
}

void RunCache::store_to_disk(std::uint64_t hash, const std::string& fingerprint,
                             const RunOutcome& outcome) {
  const std::string dir = disk_dir();
  if (dir.empty()) return;

  // Persistence never fails the run — the in-memory entry stands — but a
  // spill that does not land is counted: the memo directory is what a
  // resumed sweep restores from.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    note_store_error(ec.message().c_str());
    return;
  }

  ByteWriter payload_w;
  payload_w.str(fingerprint);
  write_outcome(payload_w, outcome);
  const std::string payload = payload_w.take();

  ByteWriter w;
  w.u64(kMemoMagic);
  w.u32(kMemoFormatVersion);
  w.u32(resilience::crc32(payload));
  const std::string file = w.take() + payload;

  // Write-then-fsync-then-rename so concurrent bench processes never
  // observe a torn memo file — and so a power loss right after the rename
  // cannot publish a page-cache-only file that truncates to the CRC-failing
  // case on the next boot.
  const std::filesystem::path final_path = memo_path(dir, hash);
  std::filesystem::path tmp = final_path;
  tmp += ".tmp";
#if defined(_WIN32)
  {
    std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
    if (!outf.good()) {
      note_store_error("cannot open temp file");
      return;
    }
    outf.write(file.data(), static_cast<std::streamsize>(file.size()));
    if (!outf.good()) {
      outf.close();
      std::filesystem::remove(tmp, ec);
      note_store_error("short write");
      return;
    }
  }
#else
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      note_store_error(std::strerror(errno));
      return;
    }
    std::size_t off = 0;
    while (off < file.size()) {
      const ssize_t n = chaos::px_write("memo.tmp.write", fd,
                                        file.data() + off, file.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        std::filesystem::remove(tmp, ec);
        note_store_error("short write");
        return;
      }
      off += static_cast<std::size_t>(n);
    }
    if (chaos::px_fsync("memo.tmp.fsync", fd) != 0) {
      // The bytes may or may not be durable; publishing them would trade a
      // recompute for a possible CRC quarantine after power loss. Drop the
      // temp file and keep the outcome in memory only.
      ::close(fd);
      std::filesystem::remove(tmp, ec);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.store_fsync_errors;
      }
      if (telemetry::active()) {
        telemetry::registry().counter("memo.store_fsync_errors").add();
      }
      std::fprintf(stderr,
                   "memo: fsync failed (%s); outcome kept in memory only\n",
                   std::strerror(errno));
      return;
    }
    ::close(fd);
  }
#endif
  chaos::crashpoint("memo.crash.before_rename");
  chaos::px_rename("memo.rename", tmp, final_path, ec);
  if (ec) {
    // A failed rename used to be silently swallowed, stranding the .tmp
    // file. Clean it up and make the failure observable.
    std::error_code rm_ec;
    std::filesystem::remove(tmp, rm_ec);
    note_store_error(ec.message().c_str());
    return;
  }
  chaos::crashpoint("memo.crash.after_rename");
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.disk_stores;
}

void RunCache::note_store_error(const char* reason) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.store_errors;
  }
  if (telemetry::active()) {
    telemetry::registry().counter("memo.store_errors").add();
  }
  std::fprintf(stderr, "memo: store failed (%s); outcome kept in memory only\n",
               reason);
}

}  // namespace esteem::sim
