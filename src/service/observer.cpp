#include "service/observer.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_emitter.hpp"

namespace esteem::service {

namespace {

void tick(const char* name, std::uint64_t n = 1) {
  if (n > 0 && telemetry::active()) telemetry::registry().counter(name).add(n);
}

std::string dec(std::uint64_t v) { return std::to_string(v); }

constexpr char kSidecarSuffix[] = ".sidecar.jsonl";

std::string json_str(const std::string& s) {
  return '"' + json::escape(s) + '"';
}

/// Row index rendered for JSON: kNoRow becomes -1.
std::int64_t json_row(std::uint64_t row) {
  return row == resilience::EventRecord::kNoRow ? -1
                                                : static_cast<std::int64_t>(row);
}

}  // namespace

std::string telemetry_dir(const std::string& dir) {
  return (std::filesystem::path(dir) / "telemetry").string();
}

std::string sidecar_path(const std::string& dir, const std::string& owner) {
  return (std::filesystem::path(telemetry_dir(dir)) /
          (telemetry::sanitize_label(owner) + kSidecarSuffix))
      .string();
}

bool Observer::open(const std::string& dir, const std::string& owner,
                    const ObservabilityConfig& cfg) {
  const std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = false;
  owner_ = owner;
  cfg_ = cfg;
  std::error_code ec;
  std::filesystem::create_directories(telemetry_dir(dir), ec);
  if (ec) {
    last_error_ = "cannot create " + telemetry_dir(dir) + ": " + ec.message();
    return false;
  }
  file_.set_domain("sidecar");
  if (!file_.open(sidecar_path(dir, owner), /*truncate=*/false)) {
    last_error_ = file_.last_error();
    return false;
  }
  enabled_ = true;
  last_error_.clear();
  return true;
}

void Observer::event(const std::string& severity, const std::string& message,
                     std::uint64_t lease_id, std::uint64_t row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) return;
  if (events_written_ >= cfg_.events_max) {
    tick("observer.events_dropped");
    return;
  }
  resilience::EventRecord ev;
  ev.t_ms = LeaseTable::wall_ms();
  ev.severity = severity;
  ev.source = owner_;
  ev.message = message;
  ev.lease_id = lease_id;
  ev.row = row;
  if (file_.append(ev.to_journal())) {
    ++events_written_;
  } else {
    note_write_error_locked();
  }
}

void Observer::flush_snapshot() {
  std::unique_lock<std::mutex> lock(mutex_);
  flush_locked(lock);
}

void Observer::flush_due() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!enabled_) return;
  const std::int64_t now = LeaseTable::wall_ms();
  if (now - last_flush_ms_ < static_cast<std::int64_t>(cfg_.flush_ms)) return;
  flush_locked(lock);
}

void Observer::flush_locked(std::unique_lock<std::mutex>&) {
  if (!enabled_) return;
  const std::int64_t now = LeaseTable::wall_ms();
  const telemetry::Snapshot snap =
      telemetry::take_snapshot(telemetry::registry(), now, owner_);
  resilience::JournalRecord rec;
  rec.kind = "snap";
  rec.fields = {{"t", dec(static_cast<std::uint64_t>(now))},
                {"seq", dec(++seq_)},
                {"data", to_hex(telemetry::encode_snapshot_jsonl(snap))}};
  // One append = one fsync'd line: a worker dying mid-snapshot tears at most
  // this record, which load_worker_telemetry skips and counts — the previous
  // snapshot stands.
  if (!file_.append(rec)) note_write_error_locked();
  // Advance the flush clock even on failure: a dead disk must cost one
  // failed append per flush period, not one per heartbeat.
  last_flush_ms_ = now;
}

std::size_t Observer::write_errors() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return write_errors_;
}

void Observer::note_write_error_locked() {
  ++write_errors_;
  tick("observer.write_errors");
}

std::vector<WorkerTelemetry> load_worker_telemetry(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(telemetry_dir(dir), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > sizeof kSidecarSuffix - 1 &&
        name.compare(name.size() - (sizeof kSidecarSuffix - 1),
                     sizeof kSidecarSuffix - 1, kSidecarSuffix) == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<WorkerTelemetry> out;
  for (const std::string& path : paths) {
    const auto loaded = resilience::JournalFile::load(path);
    if (!loaded.exists) continue;
    WorkerTelemetry wt;
    wt.damaged_lines = loaded.corrupt_lines;
    for (const auto& rec : loaded.records) {
      if (rec.kind == "snap") {
        const auto bytes = from_hex(rec.field("data"));
        telemetry::Snapshot snap;
        if (!bytes || !telemetry::decode_snapshot_jsonl(*bytes, snap)) {
          ++wt.damaged_lines;
          continue;
        }
        if (wt.owner.empty()) wt.owner = snap.source;
        wt.snapshots.push_back(std::move(snap));
      } else if (rec.kind == "evt") {
        resilience::EventRecord ev;
        if (!resilience::EventRecord::from_journal(rec, ev)) {
          ++wt.damaged_lines;
          continue;
        }
        if (wt.owner.empty()) wt.owner = ev.source;
        wt.events.push_back(std::move(ev));
      }
    }
    if (wt.owner.empty()) {
      // Sidecar holds no decodable record naming its owner: fall back to the
      // (sanitized) file stem so the damage is still attributed somewhere.
      std::string stem = std::filesystem::path(path).filename().string();
      stem.resize(stem.size() - (sizeof kSidecarSuffix - 1));
      wt.owner = stem;
    }
    out.push_back(std::move(wt));
  }
  std::sort(out.begin(), out.end(),
            [](const WorkerTelemetry& a, const WorkerTelemetry& b) {
              return a.owner < b.owner;
            });
  return out;
}

FleetStatus collect_fleet_status(const LeaseTable& table, const TableState& state,
                                 std::int64_t now_ms) {
  FleetStatus fs;
  fs.sweep_hash = table.sweep_hash();
  fs.now_ms = now_ms;
  fs.rows = state.rows.size();
  fs.completed = state.completed;
  fs.failed = state.failed;
  fs.conflict = state.conflict;
  fs.damaged_lines = state.damaged_lines;
  for (const RowState& r : state.rows) {
    if (!r.resolved() && r.leased(now_ms)) ++fs.leased;
  }

  // Journal replay for per-worker attribution and row timing. The lease-id
  // -> owner map attributes heartbeats (hb records carry no owner).
  std::map<std::string, WorkerHealth> by_owner;
  std::map<std::uint64_t, std::string> lease_owner;
  struct RowTiming {
    std::int64_t claim_ms = -1;    ///< Latest lease append.
    std::int64_t resolve_ms = -1;  ///< First success/terminal-error append.
    bool counted = false;          ///< First terminal record already attributed.
  };
  std::vector<RowTiming> timing(fs.rows);
  const auto loaded =
      resilience::JournalFile::load(LeaseTable::journal_path(table.dir()));
  for (const auto& rec : loaded.records) {
    std::uint64_t row = 0, t = 0;
    const bool has_row = json::parse_u64(rec.field("row"), row) && row < fs.rows;
    const bool has_t = json::parse_u64(rec.field("t"), t);
    if (rec.kind == "lease" && has_row && has_t) {
      std::uint64_t id = 0, gen = 0;
      if (!parse_hex_u64(rec.field("id"), id) ||
          !json::parse_u64(rec.field("gen"), gen)) {
        continue;
      }
      const std::string& owner = rec.field("owner");
      lease_owner[id] = owner;
      WorkerHealth& h = by_owner[owner];
      h.last_seen_ms = std::max(h.last_seen_ms, static_cast<std::int64_t>(t));
      if (gen > 1) ++h.rows_stolen;
      timing[row].claim_ms = static_cast<std::int64_t>(t);
    } else if (rec.kind == "hb" && has_t) {
      std::uint64_t id = 0;
      if (!parse_hex_u64(rec.field("id"), id)) continue;
      const auto it = lease_owner.find(id);
      if (it == lease_owner.end()) continue;
      WorkerHealth& h = by_owner[it->second];
      h.last_seen_ms = std::max(h.last_seen_ms, static_cast<std::int64_t>(t));
    } else if ((rec.kind == "cell" || rec.kind == "err") && has_row) {
      const std::string& owner = rec.field("owner");
      if (!owner.empty()) {
        WorkerHealth& h = by_owner[owner];
        if (has_t) h.last_seen_ms = std::max(h.last_seen_ms, static_cast<std::int64_t>(t));
        if (!timing[row].counted) {
          if (rec.kind == "cell") ++h.rows_done;
          else ++h.rows_failed;
        }
      }
      if (!timing[row].counted) {
        timing[row].counted = true;
        if (has_t) timing[row].resolve_ms = static_cast<std::int64_t>(t);
      }
    }
  }

  // Sidecars: memo hit rate from each worker's latest snapshot + event feed.
  for (WorkerTelemetry& wt : load_worker_telemetry(table.dir())) {
    WorkerHealth& h = by_owner[wt.owner];
    h.events = wt.events.size();
    h.sidecar_damaged = wt.damaged_lines;
    fs.damaged_lines += wt.damaged_lines;
    if (!wt.snapshots.empty()) {
      const telemetry::Snapshot& latest = wt.snapshots.back();
      h.last_seen_ms = std::max(h.last_seen_ms, latest.t_ms);
      std::uint64_t hits = 0, misses = 0;
      for (const telemetry::MetricSample& m : latest.metrics) {
        if (m.name == "memo.hits") hits = m.raw;
        else if (m.name == "memo.misses") misses = m.raw;
      }
      if (hits + misses > 0) {
        h.memo_hit_rate = static_cast<double>(hits) / static_cast<double>(hits + misses);
      }
    }
    for (resilience::EventRecord& ev : wt.events) {
      fs.recent_events.push_back(std::move(ev));
    }
  }
  std::stable_sort(fs.recent_events.begin(), fs.recent_events.end(),
                   [](const resilience::EventRecord& a, const resilience::EventRecord& b) {
                     return a.t_ms < b.t_ms;
                   });
  if (fs.recent_events.size() > kStatusEventCap) {
    fs.recent_events.erase(fs.recent_events.begin(),
                           fs.recent_events.end() - kStatusEventCap);
  }

  const std::int64_t ttl = table.spec().config.service.lease_ttl_ms;
  for (auto& [owner, h] : by_owner) {
    h.owner = owner;
    if (h.last_seen_ms > 0) {
      h.heartbeat_age_ms = std::max<std::int64_t>(0, now_ms - h.last_seen_ms);
      h.alive = h.heartbeat_age_ms < ttl;
    }
    fs.workers.push_back(std::move(h));  // std::map iterates owner-sorted.
  }

  // ETA: remaining rows at the mean observed claim->resolution duration,
  // spread over the workers currently alive.
  const std::size_t remaining = fs.rows - fs.completed - fs.failed;
  if (remaining == 0) {
    fs.eta_ms = 0;
  } else {
    std::int64_t total = 0, n = 0;
    for (const RowTiming& rt : timing) {
      if (rt.claim_ms >= 0 && rt.resolve_ms >= rt.claim_ms) {
        total += rt.resolve_ms - rt.claim_ms;
        ++n;
      }
    }
    std::size_t alive = 0;
    for (const WorkerHealth& h : fs.workers) {
      if (h.alive) ++alive;
    }
    if (n > 0 && alive > 0) {
      fs.eta_ms = static_cast<std::int64_t>(remaining) * (total / n) /
                  static_cast<std::int64_t>(alive);
    }
  }
  return fs;
}

std::string status_json(const FleetStatus& fs) {
  // Versioned, single-line, keys in this fixed order — the machine contract
  // shared by `esteem_workerd --status --json` and `esteem_cli --serve`.
  std::string out = "{\"v\":1";
  out += ",\"sweep\":\"" + hex_u64(fs.sweep_hash) + '"';
  out += ",\"now_ms\":" + std::to_string(fs.now_ms);
  out += ",\"rows\":" + std::to_string(fs.rows);
  out += ",\"completed\":" + std::to_string(fs.completed);
  out += ",\"failed\":" + std::to_string(fs.failed);
  out += ",\"pending\":" + std::to_string(fs.rows - fs.completed - fs.failed);
  out += ",\"leased\":" + std::to_string(fs.leased);
  out += ",\"conflict\":" + std::string(fs.conflict ? "true" : "false");
  out += ",\"damaged_lines\":" + std::to_string(fs.damaged_lines);
  out += ",\"eta_ms\":" + std::to_string(fs.eta_ms);
  out += ",\"workers\":[";
  for (std::size_t i = 0; i < fs.workers.size(); ++i) {
    const WorkerHealth& h = fs.workers[i];
    out += i ? "," : "";
    out += "{\"owner\":" + json_str(h.owner);
    out += ",\"alive\":" + std::string(h.alive ? "true" : "false");
    out += ",\"heartbeat_age_ms\":" + std::to_string(h.heartbeat_age_ms);
    out += ",\"done\":" + std::to_string(h.rows_done);
    out += ",\"failed\":" + std::to_string(h.rows_failed);
    out += ",\"stolen\":" + std::to_string(h.rows_stolen);
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.4f", h.memo_hit_rate);
    out += ",\"memo_hit_rate\":" + std::string(h.memo_hit_rate < 0 ? "-1" : rate);
    out += ",\"events\":" + std::to_string(h.events) + '}';
  }
  out += "],\"events\":[";
  for (std::size_t i = 0; i < fs.recent_events.size(); ++i) {
    const resilience::EventRecord& ev = fs.recent_events[i];
    out += i ? "," : "";
    out += "{\"t\":" + std::to_string(ev.t_ms);
    out += ",\"sev\":" + json_str(ev.severity);
    out += ",\"src\":" + json_str(ev.source);
    out += ",\"lease\":\"" + hex_u64(ev.lease_id) + '"';
    out += ",\"row\":" + std::to_string(json_row(ev.row));
    out += ",\"msg\":" + json_str(ev.message) + '}';
  }
  out += "]}";
  return out;
}

std::string progress_line(const FleetStatus& fs) {
  std::size_t alive = 0;
  for (const WorkerHealth& h : fs.workers) {
    if (h.alive) ++alive;
  }
  char eta[48];
  if (fs.eta_ms < 0) std::snprintf(eta, sizeof eta, "eta unknown");
  else if (fs.eta_ms == 0) std::snprintf(eta, sizeof eta, "resolved");
  else std::snprintf(eta, sizeof eta, "eta ~%.1fs", static_cast<double>(fs.eta_ms) / 1000.0);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "[fleet] %zu/%zu rows resolved (%zu failed, %zu leased) | "
                "workers %zu/%zu alive | %s%s%s",
                fs.completed + fs.failed, fs.rows, fs.failed, fs.leased, alive,
                fs.workers.size(), eta,
                fs.conflict ? " | INTEGRITY CONFLICT" : "",
                fs.damaged_lines != 0 ? " | damaged lines skipped" : "");
  return buf;
}

bool write_fleet_metrics(const std::string& dir, const std::string& path,
                         std::string& error) {
  std::vector<telemetry::Snapshot> latest;
  for (const WorkerTelemetry& wt : load_worker_telemetry(dir)) {
    if (!wt.snapshots.empty()) latest.push_back(wt.snapshots.back());
  }
  if (latest.empty()) {
    error = "no worker snapshots under " + telemetry_dir(dir) +
            " (is [observability] flush_ms set?)";
    return false;
  }
  std::string text;
  try {
    text = telemetry::to_openmetrics(telemetry::merge_snapshots(latest));
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out.good()) {
    error = "cannot write " + path;
    return false;
  }
  out << text;
  out.flush();
  if (!out.good()) {
    error = "short write to " + path;
    return false;
  }
  error.clear();
  return true;
}

bool write_merged_trace(const std::string& dir, const std::string& out_path,
                        std::string& error) {
  LeaseTable table;
  if (!table.open(dir, "trace")) {
    error = table.last_error();
    return false;
  }

  struct LeaseEv {
    std::int64_t t_ms;
    std::string owner;
    std::uint64_t gen;
  };
  struct Resolution {
    std::int64_t t_ms = -1;
    bool done = false;
    bool seen = false;
  };
  const std::size_t n_rows = table.n_rows();
  std::vector<std::vector<LeaseEv>> leases(n_rows);
  std::vector<Resolution> res(n_rows);
  std::int64_t plan_ms = -1, min_t = -1, max_t = -1;
  auto widen = [&](std::int64_t t) {
    if (min_t < 0 || t < min_t) min_t = t;
    if (t > max_t) max_t = t;
  };

  const auto loaded = resilience::JournalFile::load(LeaseTable::journal_path(dir));
  std::set<std::string> owners;
  for (const auto& rec : loaded.records) {
    std::uint64_t row = 0, t = 0;
    const bool has_row = json::parse_u64(rec.field("row"), row) && row < n_rows;
    const bool has_t = json::parse_u64(rec.field("t"), t);
    if (has_t) widen(static_cast<std::int64_t>(t));
    if (rec.kind == "svc" && has_t && plan_ms < 0) {
      plan_ms = static_cast<std::int64_t>(t);
    } else if (rec.kind == "lease" && has_row && has_t) {
      std::uint64_t gen = 0;
      json::parse_u64(rec.field("gen"), gen);
      owners.insert(rec.field("owner"));
      leases[row].push_back(
          LeaseEv{static_cast<std::int64_t>(t), rec.field("owner"), gen});
    } else if ((rec.kind == "cell" || rec.kind == "err") && has_row) {
      if (!rec.field("owner").empty()) owners.insert(rec.field("owner"));
      if (!res[row].seen) {
        res[row].seen = true;
        res[row].done = rec.kind == "cell";
        if (has_t) res[row].t_ms = static_cast<std::int64_t>(t);
      }
    }
  }

  const std::vector<WorkerTelemetry> sidecars = load_worker_telemetry(dir);
  for (const WorkerTelemetry& wt : sidecars) {
    owners.insert(wt.owner);
    for (const telemetry::Snapshot& s : wt.snapshots) widen(s.t_ms);
    for (const resilience::EventRecord& ev : wt.events) widen(ev.t_ms);
  }
  if (min_t < 0) min_t = max_t = 0;
  const std::int64_t epoch = min_t;
  auto ts_us = [epoch](std::int64_t t) {
    return static_cast<double>(t - epoch) * 1000.0;
  };

  // pid 0 = coordinator, pid i+1 = worker i (owner-sorted): every process in
  // the fleet gets a disjoint pid, which is what makes the merged timeline
  // readable in Perfetto.
  telemetry::TraceEmitter em;
  em.set_process_name(0, "coordinator (fleet)");
  em.set_thread_name(0, 1, "sweep");
  std::map<std::string, std::uint32_t> pid_of;
  for (const std::string& owner : owners) {
    const auto pid = static_cast<std::uint32_t>(pid_of.size() + 1);
    pid_of[owner] = pid;
    em.set_process_name(pid, owner);
    em.set_thread_name(pid, 1, "rows");
    em.set_thread_name(pid, 2, "events");
  }

  em.instant(0, 1, "plan", ts_us(plan_ms >= 0 ? plan_ms : epoch));
  std::vector<std::int64_t> resolved_at;
  for (const Resolution& r : res) {
    if (r.seen && r.t_ms >= 0) resolved_at.push_back(r.t_ms);
  }
  std::sort(resolved_at.begin(), resolved_at.end());
  for (std::size_t i = 0; i < resolved_at.size(); ++i) {
    em.counter(0, "rows_resolved", ts_us(resolved_at[i]),
               static_cast<double>(i + 1));
  }

  for (std::size_t row = 0; row < n_rows; ++row) {
    const std::string name = table.row_workload(row).name + "/" +
                             std::string(to_string(table.row_technique(row)));
    for (std::size_t i = 0; i < leases[row].size(); ++i) {
      const LeaseEv& lv = leases[row][i];
      const auto it = pid_of.find(lv.owner);
      if (it == pid_of.end()) continue;
      const bool last = i + 1 == leases[row].size();
      std::int64_t end;
      const char* outcome;
      if (!last) {
        end = leases[row][i + 1].t_ms;  // Superseded: the next lease stole it.
        outcome = "lost";
      } else if (res[row].seen && res[row].t_ms >= lv.t_ms) {
        end = res[row].t_ms;
        outcome = res[row].done ? "done" : "failed";
      } else {
        end = max_t;  // Still in flight (or resolution untimed): open-ended.
        outcome = "open";
      }
      char args[160];
      std::snprintf(args, sizeof args,
                    "{\"row\":%zu,\"gen\":%llu,\"stolen\":%s,\"outcome\":\"%s\"}",
                    row, static_cast<unsigned long long>(lv.gen),
                    lv.gen > 1 ? "true" : "false", outcome);
      em.complete(it->second, 1, name, ts_us(lv.t_ms),
                  static_cast<double>(std::max<std::int64_t>(end - lv.t_ms, 0)) * 1000.0,
                  args);
      if (lv.gen > 1) em.instant(it->second, 1, "steal", ts_us(lv.t_ms));
    }
  }

  for (const WorkerTelemetry& wt : sidecars) {
    const std::uint32_t pid = pid_of[wt.owner];
    for (const resilience::EventRecord& ev : wt.events) {
      em.instant(pid, 2, ev.message, ts_us(ev.t_ms),
                 "{\"sev\":" + json_str(ev.severity) +
                     ",\"row\":" + std::to_string(json_row(ev.row)) + "}");
    }
    for (const telemetry::Snapshot& s : wt.snapshots) {
      for (const telemetry::MetricSample& m : s.metrics) {
        if (m.name == "worker.rows_completed") {
          em.counter(pid, "rows_done", ts_us(s.t_ms), m.value);
        }
      }
    }
  }

  if (!em.write_file(out_path)) {
    error = "cannot write " + out_path;
    return false;
  }
  error.clear();
  return true;
}

}  // namespace esteem::service
