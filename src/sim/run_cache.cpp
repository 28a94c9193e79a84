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
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "chaos/file_ops.hpp"
#include "common/bytes.hpp"
#include "common/config_io.hpp"
#include "resilience/crc32.hpp"

namespace esteem::sim {

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

// The serialized RunOutcome is spelled once, in outcome_fields(), over one
// of two adapters: OutcomeWriter appends each field (every visit succeeds),
// OutcomeReader fills it back and reports truncation. The digest, the memo
// payload and the loader therefore cannot disagree about the layout.
struct OutcomeWriter {
  ByteWriter& w;
  bool u64(std::uint64_t v) { w.u64(v); return true; }
  bool f64(double v) { w.f64(v); return true; }
  bool flag(bool v) { w.u8(v ? 1 : 0); return true; }
  template <class T>
  bool count(const std::vector<T>& v) { w.u64(v.size()); return true; }
  // Retired timeline count: keeps outcome digests and memo files byte-stable.
  bool retired_zero() { w.u64(0); return true; }
};

struct OutcomeReader {
  ByteReader& rd;
  bool u64(std::uint64_t& v) { return rd.u64(v); }
  bool f64(double& v) { return rd.f64(v); }
  bool flag(bool& v) {
    std::uint8_t b = 0;
    if (!rd.u8(b)) return false;
    v = b != 0;
    return true;
  }
  template <class T>
  bool count(std::vector<T>& v) {
    std::uint64_t n = 0;
    if (!rd.u64(n)) return false;
    v.resize(n);
    return true;
  }
  // Retired timeline count: only the constant 0 is valid.
  bool retired_zero() {
    std::uint64_t n = 0;
    return rd.u64(n) && n == 0;
  }
};

template <class IO, class Est>
bool estimate_fields(IO& io, Est& e) {
  return io.f64(e.value) && io.f64(e.half_ci);
}

/// The one field list of a serialized RunOutcome, in file order. `Outcome`
/// is const for an OutcomeWriter and mutable for an OutcomeReader.
template <class IO, class Outcome>
bool outcome_fields(IO& io, Outcome& o) {
  auto& r = o.raw;
  if (!io.count(r.ipc)) return false;
  for (auto& v : r.ipc) {
    if (!io.f64(v)) return false;
  }
  auto& c = r.counters;
  auto& m = r.mem_stats;
  auto& f = r.faults;
  auto& e = o.energy;
  auto& est = o.estimates;
  const bool ok =
      io.u64(r.instr_per_core) && io.u64(r.total_instructions) &&
      io.u64(r.wall_cycles) &&
      io.f64(c.seconds) && io.f64(c.fa_seconds) && io.u64(c.l2_hits) &&
      io.u64(c.l2_misses) && io.u64(c.refreshes) && io.u64(c.mm_accesses) &&
      io.u64(c.transitions) && io.u64(c.ecc_corrections) &&
      io.u64(m.demand_l2_hits) && io.u64(m.demand_l2_misses) &&
      io.u64(m.l2_writeback_accesses) && io.u64(m.mm_writebacks) &&
      io.u64(m.reconfig_transitions) && io.u64(m.reconfig_writebacks) &&
      io.u64(r.refreshes) && io.u64(r.demand_misses) && io.f64(r.avg_active_ratio) &&
      io.u64(f.scans) && io.u64(f.corrected_lines) && io.u64(f.corrected_reads) &&
      io.u64(f.refetches) && io.u64(f.data_loss_events) && io.u64(f.disabled_lines) &&
      io.u64(r.disabled_slots) &&
      io.retired_zero() &&
      io.f64(e.leak_l2_j) && io.f64(e.dyn_l2_j) && io.f64(e.refresh_l2_j) &&
      io.f64(e.ecc_l2_j) && io.f64(e.mm_j) && io.f64(e.algo_j) &&
      io.flag(est.enabled);
  if (!ok) return false;
  if (!est.enabled) return true;

  if (!(io.u64(est.windows) && io.u64(est.window_instr) &&
        io.u64(est.detailed_instr) && estimate_fields(io, est.wall_cycles) &&
        io.count(est.ipc))) {
    return false;
  }
  for (auto& v : est.ipc) {
    if (!estimate_fields(io, v)) return false;
  }
  return estimate_fields(io, est.l2_hits) && estimate_fields(io, est.l2_misses) &&
         estimate_fields(io, est.demand_hits) && estimate_fields(io, est.demand_misses) &&
         estimate_fields(io, est.l2_writeback_accesses) &&
         estimate_fields(io, est.mm_accesses) && estimate_fields(io, est.mm_writebacks) &&
         estimate_fields(io, est.corrected_reads) && estimate_fields(io, est.refreshes) &&
         io.f64(est.fa_fraction) && estimate_fields(io, est.energy_j);
}

void write_outcome(ByteWriter& w, const RunOutcome& o) {
  OutcomeWriter io{w};
  outcome_fields(io, o);
}

bool read_outcome(ByteReader& rd, RunOutcome& o) {
  OutcomeReader io{rd};
  return outcome_fields(io, o) && rd.done();
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

  write_config_bytes(w, spec.config);
  w.u32(static_cast<std::uint32_t>(spec.technique));
  w.str(spec.workload.name);
  w.u64(spec.workload.benchmarks.size());
  for (const std::string& b : spec.workload.benchmarks) w.str(b);
  w.u64(spec.seed);
  w.u64(spec.instr_per_core);
  w.u64(spec.warmup_instr_per_core);
  // Retired timeline flag: keeps memo keys, and so --journal resume, valid.
  w.u8(0);
  return w.take();
}

std::uint64_t fingerprint_hash(const std::string& fingerprint) {
  return fnv1a(kFnv1aBasis, fingerprint);
}

std::shared_ptr<const RunOutcome> run_experiment_cached(const RunSpec& spec) {
  return RunCache::instance().get_or_run(spec);
}

RunCache& RunCache::instance() {
  static RunCache* cache = new RunCache();
  return *cache;
}

std::shared_ptr<const RunOutcome> RunCache::get_or_run(const RunSpec& spec) {
  return get_or_run_group({spec}).front();
}

std::vector<std::shared_ptr<const RunOutcome>> RunCache::get_or_run_group(
    const std::vector<RunSpec>& group) {
  const std::size_t n = group.size();
  std::vector<std::string> fps(n);
  std::vector<std::promise<OutcomePtr>> promises(n);
  std::vector<std::shared_future<OutcomePtr>> futures(n);
  std::vector<std::size_t> owned;  // indices whose keys this call claimed
  for (std::size_t i = 0; i < n; ++i) fps[i] = run_spec_fingerprint(group[i]);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      auto it = map_.find(fps[i]);
      if (it != map_.end()) {
        ++stats_.hits;
        futures[i] = it->second;
      } else {
        ++stats_.misses;
        owned.push_back(i);
        futures[i] = promises[i].get_future().share();
        map_.emplace(fps[i], futures[i]);
      }
    }
  }

  // Publish every claimed key before waiting on any other owner's.
  std::vector<bool> published(n, false);
  const auto publish = [&](std::size_t i, OutcomePtr outcome) {
    promises[i].set_value(std::move(outcome));
    published[i] = true;
  };
  try {
    std::vector<std::size_t> to_run;
    std::vector<RunSpec> specs;
    for (const std::size_t i : owned) {
      OutcomePtr outcome;
      if (load_from_disk(fingerprint_hash(fps[i]), fps[i], outcome)) {
        publish(i, std::move(outcome));
      } else {
        to_run.push_back(i);
        specs.push_back(group[i]);
      }
    }
    if (!to_run.empty()) {
      std::vector<RunOutcome> outcomes = run_experiment(specs);
      for (std::size_t j = 0; j < to_run.size(); ++j) {
        const std::size_t i = to_run[j];
        auto outcome = std::make_shared<const RunOutcome>(std::move(outcomes[j]));
        store_to_disk(fingerprint_hash(fps[i]), fps[i], *outcome);
        publish(i, std::move(outcome));
      }
    }
  } catch (...) {
    // Leave failures uncached: a retry recomputes instead of replaying the
    // stored exception forever. Waiters already holding a future still
    // observe this failure.
    const std::exception_ptr error = std::current_exception();
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::size_t i : owned) {
      if (published[i]) continue;
      promises[i].set_exception(error);
      map_.erase(fps[i]);
    }
    throw;
  }

  std::vector<OutcomePtr> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = futures[i].get();
  return out;
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
    const long pid = static_cast<long>(::getpid());
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
      std::fprintf(stderr,
                   "memo: fsync failed (%s); outcome kept in memory only\n",
                   std::strerror(errno));
      return;
    }
    ::close(fd);
  }
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
  std::fprintf(stderr, "memo: store failed (%s); outcome kept in memory only\n",
               reason);
}

}  // namespace esteem::sim
