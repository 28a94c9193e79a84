#include "chaos/fault_plan.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace esteem::chaos {

namespace {

// The installed plan. A raw pointer behind an atomic keeps armed() to one
// relaxed load; the unique_ptr below owns the object so install/disarm are
// leak-free. Plans are installed before the faulted workload starts and
// uninstalled after it ends, so no reader can hold a stale pointer across a
// swap in practice (tests and the explorer respect this contract).
std::atomic<FaultPlan*> g_plan{nullptr};
std::unique_ptr<FaultPlan> g_owner;
std::atomic<std::uint64_t> g_injections{0};

}  // namespace

const std::vector<PointInfo>& injection_points() {
  // One row per seam call site, all in the run-memo store path (which a
  // resumed CLI sweep restores from).
  static const std::vector<PointInfo> kPoints = {
      {"memo.tmp.write", OpKind::kWrite, "write the memo-cache temp file"},
      {"memo.tmp.fsync", OpKind::kFsync, "fsync the memo temp file"},
      {"memo.rename", OpKind::kRename, "publish the memo file via rename"},
      {"memo.crash.before_rename", OpKind::kCrash,
       "die with only the memo temp file on disk"},
      {"memo.crash.after_rename", OpKind::kCrash,
       "die right after the memo file is published"},
  };
  return kPoints;
}

FaultPlan::~FaultPlan() = default;

bool armed() noexcept {
  return g_plan.load(std::memory_order_relaxed) != nullptr;
}

void install_plan(std::unique_ptr<FaultPlan> plan) {
  g_plan.store(nullptr, std::memory_order_release);
  g_owner = std::move(plan);
  g_injections.store(0, std::memory_order_relaxed);
  g_plan.store(g_owner.get(), std::memory_order_release);
}

void disarm() { install_plan(nullptr); }

Injection consult(const std::string& point) {
  FaultPlan* plan = g_plan.load(std::memory_order_acquire);
  if (plan == nullptr) return {};
  Injection inj = plan->at(point);
  if (!inj.none()) g_injections.fetch_add(1, std::memory_order_relaxed);
  return inj;
}

std::uint64_t injection_count() noexcept {
  return g_injections.load(std::memory_order_relaxed);
}

namespace {

bool parse_action(const std::string& text, Injection& out, std::string& error) {
  using Action = Injection::Action;
  if (text == "enospc") {
    out.action = Action::kErrno;
    out.err = ENOSPC;
  } else if (text == "eio" || text == "fail") {
    out.action = Action::kErrno;
    out.err = EIO;
  } else if (text.rfind("short:", 0) == 0) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(text.c_str() + 6, &end, 10);
    if (end == text.c_str() + 6 || *end != '\0') {
      error = "bad short-write byte count in '" + text + "'";
      return false;
    }
    out.action = Action::kShortWrite;
    out.err = EIO;
    out.bytes = static_cast<std::size_t>(n);
  } else if (text == "dup") {
    out.action = Action::kRenameDuplicate;
    out.err = EIO;
  } else if (text == "crash") {
    out.action = Action::kCrash;
  } else {
    error = "unknown action '" + text +
            "' (want enospc|eio|short:<bytes>|fail|dup|crash)";
    return false;
  }
  return true;
}

}  // namespace

ScheduleFaultPlan::ScheduleFaultPlan(std::vector<Entry> entries)
    : entries_(std::move(entries)) {}

std::unique_ptr<ScheduleFaultPlan> ScheduleFaultPlan::parse(
    const std::string& schedule, std::string& error) {
  std::vector<Entry> entries;
  std::size_t pos = 0;
  while (pos <= schedule.size()) {
    std::size_t end = schedule.find(';', pos);
    if (end == std::string::npos) end = schedule.size();
    const std::string item = schedule.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) {
      if (pos > schedule.size()) break;
      error = "empty schedule entry";
      return nullptr;
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      error = "schedule entry '" + item + "' is not point[@hit]=action";
      return nullptr;
    }
    Entry entry;
    std::string point = item.substr(0, eq);
    const std::size_t at = point.find('@');
    if (at != std::string::npos) {
      const std::string hit = point.substr(at + 1);
      point.resize(at);
      if (hit == "*") {
        entry.every_hit = true;
      } else {
        char* endp = nullptr;
        entry.hit = std::strtoull(hit.c_str(), &endp, 10);
        if (hit.empty() || endp != hit.c_str() + hit.size()) {
          error = "bad hit index in '" + item + "'";
          return nullptr;
        }
      }
    }
    if (point.empty()) {
      error = "empty point name in '" + item + "'";
      return nullptr;
    }
    entry.point = std::move(point);
    if (!parse_action(item.substr(eq + 1), entry.injection, error)) {
      return nullptr;
    }
    entries.push_back(std::move(entry));
    if (end == schedule.size()) break;
  }
  if (entries.empty()) {
    error = "empty schedule";
    return nullptr;
  }
  return std::unique_ptr<ScheduleFaultPlan>(
      new ScheduleFaultPlan(std::move(entries)));
}

Injection ScheduleFaultPlan::at(const std::string& point) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t hit = hits_[point]++;
  for (const Entry& entry : entries_) {
    if (entry.point != point) continue;
    if (entry.every_hit || entry.hit == hit) return entry.injection;
  }
  return {};
}

RandomFaultPlan::RandomFaultPlan(std::uint64_t seed, unsigned rate_percent,
                                 unsigned max_injections)
    : seed_(seed), rate_percent_(rate_percent), budget_(max_injections) {}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const PointInfo* find_point(const std::string& point) {
  for (const PointInfo& info : injection_points()) {
    if (point == info.name) return &info;
  }
  return nullptr;
}

}  // namespace

Injection RandomFaultPlan::at(const std::string& point) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t draw = splitmix64(seed_ ^ splitmix64(sequence_++));
  if (budget_ == 0) return {};
  const PointInfo* info = find_point(point);
  if (info == nullptr) return {};  // Only registered points are faulted.
  const OpKind kind = info->kind;
  if (kind == OpKind::kCrash) return {};  // Crashes need a forked harness.
  if (draw % 100 >= rate_percent_) return {};
  --budget_;
  Injection inj;
  const std::uint64_t pick = splitmix64(draw);
  switch (kind) {
    case OpKind::kWrite:
      if (pick % 3 == 0) {
        inj.action = Injection::Action::kShortWrite;
        inj.err = EIO;
        inj.bytes = static_cast<std::size_t>(pick / 3 % 24);
      } else {
        inj.action = Injection::Action::kErrno;
        inj.err = (pick % 3 == 1) ? ENOSPC : EIO;
      }
      break;
    case OpKind::kRename:
      inj.action = (pick % 2 == 0) ? Injection::Action::kRenameDuplicate
                                   : Injection::Action::kErrno;
      inj.err = EIO;
      break;
    case OpKind::kFsync:
      inj.action = Injection::Action::kErrno;
      inj.err = (pick % 2 == 0) ? ENOSPC : EIO;
      break;
    case OpKind::kCrash:
      break;
  }
  return inj;
}

}  // namespace esteem::chaos
