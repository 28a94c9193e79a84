// Retention-fault injection for the eDRAM LLC.
//
// The analytic ECC model (ecc.hpp) computes closed-form failure
// probabilities; this subsystem makes those failures *happen* so that
// ECC-extended refresh and graceful degradation can be stress-tested
// end-to-end (the evaluation style of Wilkerson et al. and Agrawal et al.).
//
// A deterministic per-line weak-cell map (WeakCellMap) is sampled from the
// lognormal CellRetentionModel (seeded, reproducible): for every (set, way)
// slot it records how many of its cells lose charge when the line goes k
// nominal retention periods without refresh, k = 1..max_tracked_extension.
// Each extension's column is sampled the first time it is asked for, so a
// run pays only for the extensions it reads. The map's contents depend on
// no workload or technique, so one process interns it per key and every
// run shares it; a FaultInjector holds only the per-run state on top. At
// every refresh-interval expiry the injector classifies each valid line:
//
//   failed bits == 0           -> clean
//   0 < failed <= correctable  -> corrected   (reads pay an ECC penalty)
//   failed > correctable       -> detected-uncorrectable: clean lines are
//                                 silently invalidated (re-fetched from
//                                 memory on the next miss); dirty lines are
//                                 data-loss events. Slots that fail
//                                 repeatedly are disabled and remapped
//                                 (way-level capacity degradation).
//
// At the nominal refresh interval (extension 1) the weak tail lies ~10
// sigma below the median, so no cell ever decays and an enabled injector
// is metric-identical to a disabled one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "edram/ecc.hpp"

namespace esteem::edram {

/// Event counters over one measurement window. Disabled-line state is
/// physical and survives reset_counters(); the counters here are events.
struct FaultCounters {
  std::uint64_t scans = 0;              ///< Refresh epochs processed.
  std::uint64_t corrected_lines = 0;    ///< Line-epochs with 1..t failed bits.
  std::uint64_t corrected_reads = 0;    ///< Hits that paid the ECC decode penalty.
  std::uint64_t refetches = 0;          ///< Clean uncorrectable invalidations.
  std::uint64_t data_loss_events = 0;   ///< Dirty uncorrectable invalidations.
  std::uint64_t disabled_lines = 0;     ///< Slots retired this window.

  std::uint64_t uncorrectable() const noexcept {
    return refetches + data_loss_events;
  }
};

/// The sampled weak cells of one physical L2 array. Its contents never
/// change; each extension's column is sampled on first use.
class WeakCellMap {
 public:
  /// Prepares a map; samples no column yet. `bits_per_line` must be in
  /// [1, 65535] and cfg.max_tracked_extension in [1, kMaxTrackedExtension].
  WeakCellMap(const FaultConfig& cfg, std::uint32_t sets, std::uint32_t ways,
              std::uint32_t bits_per_line, const CellRetentionModel& model);

  /// The process-wide shared map for these parameters. The key is exactly
  /// what the sample depends on: cfg.seed, the bit patterns of
  /// model.median_multiple and model.sigma, cfg.max_tracked_extension, sets,
  /// ways and bits_per_line. Thread-safe: concurrent first uses of one key
  /// get one map. The cache keeps the most recently interned map alive; any
  /// other map lives only while a caller still holds it.
  static std::shared_ptr<const WeakCellMap> interned(
      const FaultConfig& cfg, std::uint32_t sets, std::uint32_t ways,
      std::uint32_t bits_per_line, const CellRetentionModel& model);

  /// Column sampling passes made by this process so far (each walks every
  /// slot's stream once); diagnostic.
  static std::uint64_t sampled_count() noexcept;

  /// Per-slot counts (indexed set * ways + way) of cells that decay within
  /// `extension` nominal retention periods, clamped to the tracked range;
  /// extension 0 gives all zeros. Samples the column on its first use, once
  /// even under concurrent first uses; the pointer stays valid for the
  /// map's lifetime.
  const std::uint16_t* column(std::uint32_t extension) const;

  /// Cells of `slot` (set * ways + way) that decay within `extension`
  /// nominal retention periods (clamped to the tracked range).
  std::uint32_t failed_bits(std::size_t slot, std::uint32_t extension) const {
    return column(extension)[slot];
  }

  std::uint32_t sets() const noexcept { return sets_; }
  std::uint32_t ways() const noexcept { return ways_; }
  std::uint32_t max_tracked_extension() const noexcept { return max_ext_; }

 private:
  struct Column {
    std::once_flag sampled;
    std::vector<std::uint16_t> fails;
  };

  void sample(std::uint32_t extension, std::vector<std::uint16_t>& out) const;

  std::uint64_t seed_;
  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t bits_per_line_;
  std::uint32_t max_ext_;
  /// P(cell fails within max_ext_ periods): the weak tail each slot's
  /// stream draws from, and log1p(-p_cap_) for its geometric skips.
  double p_cap_ = 0.0;
  double log1mp_ = 0.0;
  /// reach_[k] = max(p_1..p_k), p_j = P(cell fails within j periods): a
  /// drawn cell counts in column k iff its quantile lies below reach_[k].
  std::vector<double> reach_;
  /// columns_[k] for k = 0..max_ext_, each filled once.
  mutable std::vector<Column> columns_;
};

/// Per-run fault state (failure streaks, corrected flags, event counters)
/// over a shared WeakCellMap.
class FaultInjector {
 public:
  /// Runs on a fresh, un-interned weak-cell map of its own.
  FaultInjector(const FaultConfig& cfg, std::uint32_t sets, std::uint32_t ways,
                std::uint32_t bits_per_line, const CellRetentionModel& model);

  /// Runs on an existing map, typically WeakCellMap::interned(...).
  FaultInjector(const FaultConfig& cfg, std::shared_ptr<const WeakCellMap> map);

  /// Cells of slot (set, way) that decay within `extension` nominal
  /// retention periods (clamped to the tracked range).
  std::uint32_t failed_bits(std::uint32_t set, std::uint32_t way,
                            std::uint32_t extension) const {
    return map_->failed_bits(slot(set, way), extension);
  }

  /// Called by the upper level when a fill drops an upper-level (L1) copy of
  /// `block`; returns true if that copy was dirty (so the loss of the line
  /// counts as data loss even when the L2 copy was clean).
  using DropHook = std::function<bool(block_t block, bool l2_dirty)>;

  /// One refresh-interval expiry over the whole cache: every valid line has
  /// gone `extension` nominal periods since its last charge restore.
  /// Classifies each line, invalidates uncorrectable ones (calling
  /// `on_drop`, e.g. for inclusion back-invalidation), and disables slots
  /// whose uncorrectable streak reaches the configured threshold.
  ///
  /// An epoch at the same extension as the previous one visits only the
  /// slots that epoch listed: those that can fail at this extension, plus
  /// any still carrying a streak. Every other slot's full-scan action would
  /// reset a corrected flag and streak that are already zero, so skipping it
  /// leaves the same state. The first epoch and every change of extension
  /// scan all slots and rebuild the list.
  void on_refresh_epoch(cache::SetAssocCache& l2, std::uint32_t extension,
                        std::uint32_t correctable, cycle_t now,
                        const DropHook& on_drop);

  /// Access-path hook for an L2 hit on (set, way). Returns true (and counts
  /// a corrected read) when the line currently holds ECC-corrected bits, in
  /// which case the caller adds the correction latency.
  bool corrected_hit(std::uint32_t set, std::uint32_t way);

  /// Access-path hook for a fill into (set, way): fresh data means fully
  /// restored charge, so any stale corrected flag is cleared.
  void on_fill_slot(std::uint32_t set, std::uint32_t way);

  const FaultCounters& counters() const noexcept { return counters_; }

  /// Zeroes the event counters (measurement reset). Weak-cell map, failure
  /// streaks, and disabled slots are physical state and persist.
  void reset_counters() noexcept { counters_ = {}; }

  std::uint32_t max_tracked_extension() const noexcept {
    return map_->max_tracked_extension();
  }

  /// Total weak cells in the map that decay within `extension` periods
  /// (diagnostic; sums failed_bits over all slots).
  std::uint64_t total_weak_cells(std::uint32_t extension) const;

  const std::shared_ptr<const WeakCellMap>& map() const noexcept { return map_; }

  /// Per-slot run state (diagnostic): consecutive uncorrectable epochs, and
  /// whether the line currently holds corrected bits.
  std::uint32_t streak(std::uint32_t set, std::uint32_t way) const {
    return streak_[slot(set, way)];
  }
  bool corrected(std::uint32_t set, std::uint32_t way) const {
    return corrected_[slot(set, way)] != 0;
  }

 private:
  std::size_t slot(std::uint32_t set, std::uint32_t way) const noexcept {
    return static_cast<std::size_t>(set) * ways_ + way;
  }

  /// One slot's full-scan action given its `failed` bit count at this
  /// epoch's extension; returns true when the slot may still need a visit
  /// at this extension (it can fail, or it carries a streak).
  bool visit(cache::SetAssocCache& l2, std::uint32_t set, std::uint32_t way,
             std::uint32_t failed, std::uint32_t correctable, cycle_t now,
             const DropHook& on_drop);

  std::shared_ptr<const WeakCellMap> map_;
  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t disable_threshold_;

  std::vector<std::uint8_t> streak_;     ///< Consecutive uncorrectable epochs.
  std::vector<std::uint8_t> corrected_;  ///< Line currently holds corrected bits.

  /// Slots the last full scan found possibly live (ascending), and the
  /// extension it ran at (empty before the first epoch).
  std::vector<std::uint32_t> live_;
  std::optional<std::uint32_t> listed_ext_;

  FaultCounters counters_;
};

}  // namespace esteem::edram
