#include "service/lease_table.hpp"

#include <chrono>
#include <filesystem>
#include <utility>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "resilience/lock_file.hpp"
#include "service/wire.hpp"
#include "sim/run_cache.hpp"
#include "telemetry/telemetry.hpp"

namespace esteem::service {

namespace {

constexpr char kJournalName[] = "service.journal";

void tick(const char* name, std::uint64_t n = 1) {
  if (n > 0 && telemetry::active()) telemetry::registry().counter(name).add(n);
}

std::string dec(std::uint64_t v) { return std::to_string(v); }

/// Journal owner labels are scrubbed like every other journal label; an
/// empty owner becomes "anon".
std::string owner_label(const std::string& owner) {
  return owner.empty() ? std::string("anon") : json::scrub(owner);
}

}  // namespace

std::string LeaseTable::journal_path(const std::string& dir) {
  return (std::filesystem::path(dir) / kJournalName).string();
}

std::int64_t LeaseTable::wall_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::size_t LeaseTable::n_rows() const noexcept {
  return spec_.workloads.size() * spec_.techniques.size();
}

const trace::Workload& LeaseTable::row_workload(std::size_t row) const {
  return spec_.workloads[row / n_techniques()];
}

sim::Technique LeaseTable::row_technique(std::size_t row) const {
  return spec_.techniques[row % n_techniques()];
}

std::string LeaseTable::last_error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_error_;
}

bool LeaseTable::locked_append(const resilience::JournalRecord& rec) {
  if (spec_.config.service.lock_mode != "lockfile") return file_.append(rec);
  // Lock-file serialization (ROADMAP's NFS/SMB caveat): O_APPEND does not
  // give concurrent appenders a total byte order there, so take an advisory
  // exclusive lock around each record. The lease TTL already bounds "how
  // long may a holder go dark", so it doubles as the stale-lock horizon.
  const std::uint32_t ttl = spec_.config.service.lease_ttl_ms;
  resilience::LockFile lock;
  if (!lock.acquire(journal_path(dir_) + ".lock", owner_, ttl,
                    /*timeout_ms=*/ttl * 2 + 2000)) {
    const std::lock_guard<std::mutex> lock_err(mutex_);
    last_error_ = lock.last_error();
    return false;
  }
  return file_.append(rec);
}

bool LeaseTable::write_header() {
  const std::string bytes = encode_sweep_spec(spec_);
  resilience::JournalRecord rec;
  rec.kind = "svc";
  rec.fields = {{"hash", hex_u64(sweep_hash_)},
                {"wire", dec(kWireVersion)},
                {"nwl", dec(spec_.workloads.size())},
                {"ntech", dec(spec_.techniques.size())},
                {"t", dec(static_cast<std::uint64_t>(wall_ms()))},
                {"spec", to_hex(bytes)}};
  if (!locked_append(rec)) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (last_error_.empty()) {
      last_error_ = "service journal append failed: " + file_.last_error();
    }
    return false;
  }
  return true;
}

bool LeaseTable::create(const std::string& dir, const sim::SweepSpec& spec,
                        const std::string& owner) {
  dir_ = dir;
  owner_ = owner_label(owner);
  spec_ = spec;
  // The thread count belongs to the process that built the spec, not to the
  // sweep's identity; rows are computed one lease at a time.
  spec_.threads = 1;
  sweep_hash_ = sweep_fingerprint_hash(spec_);

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string path = journal_path(dir_);
  const std::string spec_hex = to_hex(encode_sweep_spec(spec_));

  bool have_header = false;
  const auto loaded = resilience::JournalFile::load(path);
  for (const auto& rec : loaded.records) {
    if (rec.kind != "svc") continue;
    // Idempotent re-plan requires the *byte-identical* spec: the sweep hash
    // alone excludes the workload list, and a different workload list means
    // a different row manifest.
    if (rec.field("spec") != spec_hex) {
      const std::lock_guard<std::mutex> lock(mutex_);
      last_error_ = "service dir " + dir_ + " already holds a different sweep";
      return false;
    }
    have_header = true;
  }

  file_.set_domain("lease");
  if (!file_.open(path, /*truncate=*/false)) {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_error_ = "cannot open " + path + ": " + file_.last_error();
    return false;
  }
  return have_header || write_header();
}

bool LeaseTable::open(const std::string& dir, const std::string& owner) {
  dir_ = dir;
  owner_ = owner_label(owner);
  const std::string path = journal_path(dir_);

  const auto loaded = resilience::JournalFile::load(path);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!loaded.exists) {
    last_error_ = "service journal missing: " + path + " (run --plan first)";
    return false;
  }
  const resilience::JournalRecord* header = nullptr;
  for (const auto& rec : loaded.records) {
    if (rec.kind == "svc") {
      header = &rec;
      break;
    }
  }
  if (header == nullptr) {
    last_error_ = "service journal has no svc header: " + path;
    return false;
  }
  const auto bytes = from_hex(header->field("spec"));
  if (!bytes || !decode_sweep_spec(*bytes, spec_)) {
    last_error_ = "service journal spec is undecodable (wire version " +
                  std::to_string(kWireVersion) + " expected): " + path;
    return false;
  }
  std::uint64_t stored_hash = 0;
  sweep_hash_ = sweep_fingerprint_hash(spec_);
  if (!parse_hex_u64(header->field("hash"), stored_hash) || stored_hash != sweep_hash_) {
    // The decoded spec does not hash to what the planner recorded: either
    // the codec dropped a field or the binaries disagree about the
    // fingerprint. Running would compute subtly different rows — refuse.
    last_error_ = "sweep hash mismatch after spec decode (codec/binary skew): " + path;
    return false;
  }
  file_.set_domain("lease");
  if (!file_.open(path, /*truncate=*/false)) {
    last_error_ = "cannot open " + path + ": " + file_.last_error();
    return false;
  }
  return true;
}

TableState LeaseTable::load_state() const {
  TableState st;
  if (spec_.workloads.empty() || spec_.techniques.empty()) {
    st.error = "lease table not opened";
    return st;
  }
  const auto loaded = resilience::JournalFile::load(journal_path(dir_));
  if (!loaded.exists) {
    st.error = "service journal missing: " + journal_path(dir_);
    return st;
  }
  st.damaged_lines = loaded.corrupt_lines;
  st.rows.assign(n_rows(), RowState{});

  bool saw_header = false;
  for (const auto& rec : loaded.records) {
    if (rec.kind == "svc") {
      std::uint64_t h = 0;
      if (!parse_hex_u64(rec.field("hash"), h) || h != sweep_hash_) {
        st = TableState{};
        st.error = "service journal mixes sweeps (foreign svc header)";
        return st;
      }
      saw_header = true;
      continue;
    }

    std::uint64_t row = 0;
    if (!json::parse_u64(rec.field("row"), row) || row >= st.rows.size()) continue;
    RowState& r = st.rows[row];

    if (rec.kind == "lease") {
      std::uint64_t id = 0, gen = 0, ttl = 0, t = 0;
      if (!parse_hex_u64(rec.field("id"), id) || !json::parse_u64(rec.field("gen"), gen) ||
          !json::parse_u64(rec.field("ttl"), ttl) || !json::parse_u64(rec.field("t"), t)) {
        continue;
      }
      r.lease_id = id;
      r.generation = gen;
      r.owner = rec.field("owner");
      r.lease_ttl_ms = static_cast<std::int64_t>(ttl);
      r.lease_expires_ms = static_cast<std::int64_t>(t + ttl);
    } else if (rec.kind == "hb") {
      std::uint64_t id = 0, t = 0;
      if (!parse_hex_u64(rec.field("id"), id) || !json::parse_u64(rec.field("t"), t)) continue;
      // A heartbeat from a superseded lease must not resurrect it.
      if (id == r.lease_id && r.lease_id != 0) {
        r.lease_expires_ms = static_cast<std::int64_t>(t) + r.lease_ttl_ms;
      }
    } else if (rec.kind == "cell") {
      std::uint64_t digest = 0;
      const auto data = from_hex(rec.field("data"));
      if (!parse_hex_u64(rec.field("digest"), digest) || !data) continue;
      if (!r.done) {
        r.done = true;
        r.failed = false;  // A later success supersedes an earlier error.
        r.digest = digest;
        r.data = *data;
        r.owner = rec.field("owner");
      } else if (r.digest != digest) {
        r.conflict = true;
      }
    } else if (rec.kind == "err") {
      if (r.resolved()) continue;  // First terminal record wins.
      const auto what = from_hex(rec.field("what"));
      r.failed = true;
      if (!rec.field("owner").empty()) r.owner = rec.field("owner");
      r.error.workload = rec.field("workload");
      r.error.technique = rec.field("technique");
      r.error.phase = rec.field("phase");
      r.error.what = what ? *what : std::string("(unrecorded error)");
    }
  }

  if (!saw_header) {
    st = TableState{};
    st.error = "service journal has no svc header";
    return st;
  }
  for (const RowState& r : st.rows) {
    if (r.done) ++st.completed;
    else if (r.failed) ++st.failed;
    if (r.conflict) st.conflict = true;
  }
  st.ok = true;
  return st;
}

std::uint64_t LeaseTable::next_lease_id(std::int64_t now_ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t h = fnv1a(kFnv1aBasis, owner_);
  h = fnv1a(h, dec(static_cast<std::uint64_t>(now_ms)));
  h = fnv1a(h, dec(++lease_counter_));
  return h == 0 ? 1 : h;
}

std::optional<LeaseClaim> LeaseTable::claim(std::int64_t now_ms) {
  // Optimistic append-then-verify; a lost race costs one retry on the next
  // candidate row. Four attempts bound the worst case under heavy contention
  // (the caller polls again anyway).
  for (int attempt = 0; attempt < 4; ++attempt) {
    const TableState st = load_state();
    if (!st.ok) {
      const std::lock_guard<std::mutex> lock(mutex_);
      last_error_ = st.error;
      return std::nullopt;
    }
    std::size_t row = st.rows.size();
    bool stolen = false;
    for (std::size_t i = 0; i < st.rows.size(); ++i) {
      if (!st.rows[i].resolved() && !st.rows[i].leased(now_ms)) {
        row = i;
        stolen = st.rows[i].lease_id != 0;
        break;
      }
    }
    if (row == st.rows.size()) return std::nullopt;  // Resolved or all leased.

    LeaseClaim c;
    c.row = row;
    c.lease_id = next_lease_id(now_ms);
    c.generation = st.rows[row].generation + 1;
    c.stolen = stolen;

    resilience::JournalRecord rec;
    rec.kind = "lease";
    rec.fields = {{"row", dec(row)},
                  {"id", hex_u64(c.lease_id)},
                  {"gen", dec(c.generation)},
                  {"owner", owner_},
                  {"ttl", dec(spec_.config.service.lease_ttl_ms)},
                  {"t", dec(static_cast<std::uint64_t>(now_ms))}};
    if (!locked_append(rec)) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (last_error_.empty()) {
        last_error_ = "lease append failed: " + file_.last_error();
      }
      return std::nullopt;
    }

    const TableState after = load_state();
    if (after.ok && after.rows[row].lease_id == c.lease_id) {
      tick("service.leases_claimed");
      if (stolen) {
        tick("service.leases_expired");
        tick("service.rows_stolen");
      }
      return c;
    }
    tick("service.lease_races");  // Another writer's lease landed after ours.
  }
  return std::nullopt;
}

bool LeaseTable::renew(const LeaseClaim& claim, std::int64_t now_ms) {
  const TableState st = load_state();
  if (!st.ok || claim.row >= st.rows.size()) return false;
  if (st.rows[claim.row].lease_id != claim.lease_id) return false;  // Lost it.
  resilience::JournalRecord rec;
  rec.kind = "hb";
  rec.fields = {{"row", dec(claim.row)},
                {"id", hex_u64(claim.lease_id)},
                {"t", dec(static_cast<std::uint64_t>(now_ms))}};
  if (!locked_append(rec)) return false;
  tick("service.heartbeats");
  return true;
}

AppendStatus LeaseTable::complete(const LeaseClaim& claim,
                                  const sim::TechniqueComparison& comparison) {
  const std::string data = encode_comparisons({comparison});
  const std::uint64_t digest = sim::fingerprint_hash(data);

  const TableState st = load_state();
  if (!st.ok || claim.row >= st.rows.size()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_error_ = st.ok ? "row index out of range" : st.error;
    return AppendStatus::kError;
  }
  const RowState& r = st.rows[claim.row];
  if (r.done && r.digest == digest) {
    tick("service.duplicate_cells");
    return AppendStatus::kDuplicate;
  }
  if (r.lease_id != claim.lease_id) {
    // Zombie fence: our lease expired and the row was re-leased (or is being
    // re-run); writing now could race the thief, so write nothing. If the
    // thief already landed the same digest we'd have deduplicated above.
    tick("service.fenced_appends");
    return AppendStatus::kFenced;
  }

  resilience::JournalRecord rec;
  rec.kind = "cell";
  rec.fields = {{"row", dec(claim.row)},
                {"id", hex_u64(claim.lease_id)},
                {"gen", dec(claim.generation)},
                {"digest", hex_u64(digest)},
                {"owner", owner_},
                {"t", dec(static_cast<std::uint64_t>(wall_ms()))},
                {"data", to_hex(data)}};
  if (!locked_append(rec)) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (last_error_.empty()) {
      last_error_ = "cell append failed: " + file_.last_error();
    }
    return AppendStatus::kError;
  }
  // Done with a different digest while we still own the lease: the journal
  // now holds both cells and load_state flags the row conflicted — a hard
  // integrity error (deterministic sims cannot legitimately disagree).
  return r.done ? AppendStatus::kConflict : AppendStatus::kOk;
}

AppendStatus LeaseTable::fail(const LeaseClaim& claim, const sim::RunError& error) {
  const TableState st = load_state();
  if (!st.ok || claim.row >= st.rows.size()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_error_ = st.ok ? "row index out of range" : st.error;
    return AppendStatus::kError;
  }
  const RowState& r = st.rows[claim.row];
  if (r.resolved()) {
    tick("service.duplicate_cells");
    return AppendStatus::kDuplicate;
  }
  if (r.lease_id != claim.lease_id) {
    tick("service.fenced_appends");
    return AppendStatus::kFenced;
  }
  resilience::JournalRecord rec;
  rec.kind = "err";
  rec.fields = {{"row", dec(claim.row)},
                {"id", hex_u64(claim.lease_id)},
                {"gen", dec(claim.generation)},
                {"owner", owner_},
                {"t", dec(static_cast<std::uint64_t>(wall_ms()))},
                {"workload", error.workload},
                {"technique", error.technique},
                {"phase", error.phase},
                {"what", to_hex(error.what)}};
  if (!locked_append(rec)) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (last_error_.empty()) {
      last_error_ = "err append failed: " + file_.last_error();
    }
    return AppendStatus::kError;
  }
  return AppendStatus::kOk;
}

}  // namespace esteem::service
