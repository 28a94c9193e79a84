// Deterministic fault-injection plans for the durable-I/O seam (DESIGN.md
// §15). The repo's durable I/O — the run-memo store a resumed sweep
// restores from — passes through named *injection points* (see
// file_ops.hpp). When a FaultPlan is installed, each point consults the
// plan and may receive an Injection: an errno to fake, a short (torn)
// write, a rename that lies about failing, or an immediate SIGKILL at a
// named crashpoint.
//
// Plans are deterministic by construction so every failure an explorer or CI
// job finds is replayable from a single (schedule, seed) pair:
//
//   - ScheduleFaultPlan: parsed from "point@hit=action;..." — the exact
//     occurrence of the exact point misbehaves, everything else is clean.
//   - RandomFaultPlan: a seeded counter-based RNG decides per consultation,
//     capped at a fixed injection budget so a run can always finish.
//
// Only esteem_chaos (--explore, --replay, --random-replay) and the tests
// install plans; no tool arms the seam from its environment.
//
// When no plan is installed the seam is disarmed: armed() is a single
// relaxed atomic load and every px_* wrapper falls straight through to the
// real syscall (pinned byte-identical by test_chaos).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace esteem::chaos {

/// What a seam operation at an injection point does normally.
enum class OpKind { kWrite, kFsync, kRename, kCrash };

/// One registered injection point: a stable name the explorer enumerates
/// and a one-line summary for --list-points and the DESIGN.md table.
struct PointInfo {
  const char* name;
  OpKind kind;
  const char* summary;
};

/// Central registry of every injection point the seam consults. The
/// esteem_chaos explorer derives its one-fault-per-point schedule set from
/// this table, so adding a seam call site means adding a row here.
const std::vector<PointInfo>& injection_points();

/// The verdict a plan hands back for one consultation.
struct Injection {
  enum class Action {
    kNone,            ///< Behave normally.
    kErrno,           ///< Fail the operation with `err` (no side effect).
    kShortWrite,      ///< Physically write `bytes` bytes, then fail with EIO.
    kRenameDuplicate, ///< Perform the rename, then report it as failed (EIO).
    kCrash,           ///< raise(SIGKILL) at this point.
  };
  Action action = Action::kNone;
  int err = 0;
  std::size_t bytes = 0;

  bool none() const noexcept { return action == Action::kNone; }
};

/// A deterministic oracle mapping (point, occurrence) -> Injection.
/// Implementations must be thread-safe: sweep worker threads store memo
/// files concurrently.
class FaultPlan {
 public:
  virtual ~FaultPlan();
  virtual Injection at(const std::string& point) = 0;
};

/// True when a plan is installed; one relaxed load, safe on hot paths.
bool armed() noexcept;

/// Installs `plan` process-wide (replacing any previous plan); nullptr
/// disarms. Not meant for concurrent install/uninstall with in-flight I/O —
/// tests and the explorer install before the workload starts.
void install_plan(std::unique_ptr<FaultPlan> plan);
void disarm();

/// Consults the installed plan; kNone when disarmed. Counts non-kNone
/// verdicts in injection_count().
Injection consult(const std::string& point);

/// Total injections delivered since the last install; the explorer uses
/// this to detect schedules that never reached their point (vacuous
/// coverage).
std::uint64_t injection_count() noexcept;

/// Deterministic single/multi-fault schedule:
///   schedule := entry (';' entry)*
///   entry    := point '@' hit '=' action | point '=' action
///   hit      := decimal occurrence index (0-based) | '*' (every occurrence)
///   action   := enospc | eio | short:<bytes> | fail | dup | crash
/// "fail" fakes EIO; "dup" performs a rename but reports failure. An entry
/// without '@hit' means hit 0.
class ScheduleFaultPlan final : public FaultPlan {
 public:
  struct Entry {
    std::string point;
    std::uint64_t hit = 0;
    bool every_hit = false;
    Injection injection;
  };

  /// Parses `schedule`; returns nullptr and fills `error` on bad syntax.
  static std::unique_ptr<ScheduleFaultPlan> parse(const std::string& schedule,
                                                  std::string& error);

  Injection at(const std::string& point) override;

 private:
  explicit ScheduleFaultPlan(std::vector<Entry> entries);
  std::vector<Entry> entries_;
  std::mutex mutex_;
  std::map<std::string, std::uint64_t> hits_;  ///< Consultations per point.
};

/// Seeded multi-fault plan: each consultation draws from a counter-based
/// splitmix64 stream over (seed, sequence) and misbehaves with probability
/// `rate_percent`/100, choosing an action appropriate to the point's OpKind.
/// Never crashes (crash schedules come from ScheduleFaultPlan so the
/// explorer can fork for them deliberately) and stops injecting after
/// `max_injections` faults so runs always terminate.
class RandomFaultPlan final : public FaultPlan {
 public:
  RandomFaultPlan(std::uint64_t seed, unsigned rate_percent,
                  unsigned max_injections);
  Injection at(const std::string& point) override;

 private:
  std::uint64_t seed_;
  unsigned rate_percent_;
  std::mutex mutex_;
  std::uint64_t sequence_ = 0;
  unsigned budget_;
};

}  // namespace esteem::chaos
