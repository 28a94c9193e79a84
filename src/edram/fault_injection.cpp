#include "edram/fault_injection.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <compare>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace esteem::edram {

namespace {

std::atomic<std::uint64_t> g_sampled{0};

/// Everything a sampled map depends on. Doubles are compared by bit
/// pattern, so equal keys always mean bit-identical sampling inputs.
struct MapKey {
  std::uint64_t seed;
  std::uint64_t median_bits;
  std::uint64_t sigma_bits;
  std::uint32_t max_ext;
  std::uint32_t sets;
  std::uint32_t ways;
  std::uint32_t bits_per_line;

  auto operator<=>(const MapKey&) const = default;
};

struct InternEntry {
  std::mutex build;  ///< Serialises the first sampling of this key.
  std::weak_ptr<const WeakCellMap> map;
};

}  // namespace

WeakCellMap::WeakCellMap(const FaultConfig& cfg, std::uint32_t sets,
                         std::uint32_t ways, std::uint32_t bits_per_line,
                         const CellRetentionModel& model)
    : sets_(sets), ways_(ways), max_ext_(cfg.max_tracked_extension) {
  if (sets_ == 0 || ways_ == 0) {
    throw std::invalid_argument("fault injector: empty cache");
  }
  if (bits_per_line == 0 || bits_per_line > 0xFFFF) {
    throw std::invalid_argument("fault injector: bits per line must be in [1, 65535]");
  }
  if (max_ext_ == 0) {
    throw std::invalid_argument("fault injector: zero tracked extension");
  }
  g_sampled.fetch_add(1, std::memory_order_relaxed);

  const std::size_t slots = static_cast<std::size_t>(sets_) * ways_;
  fail_at_.assign(slots * max_ext_, 0);

  // Per-extension cell-failure probabilities; p_k[max_ext_-1] caps the weak
  // tail we materialise (cells above it never decay within tracked range).
  std::vector<double> p_k(max_ext_);
  for (std::uint32_t k = 1; k <= max_ext_; ++k) {
    p_k[k - 1] = cell_failure_probability(static_cast<double>(k), model);
  }
  const double p_cap = p_k[max_ext_ - 1];
  if (p_cap <= 0.0) return;  // no cell is weak within the tracked range

  const double log1mp = std::log1p(-std::min(p_cap, 1.0 - 1e-15));
  for (std::size_t s = 0; s < slots; ++s) {
    // Independent deterministic stream per slot: the map depends only on
    // (seed, slot), not on sampling order or workload.
    std::uint64_t seed_state = cfg.seed + 0x9E3779B97F4A7C15ULL * (s + 1);
    Rng rng(splitmix64(seed_state));

    // Weak-cell positions via geometric skips: E[iterations] = bits * p_cap.
    double pos = -1.0;
    for (;;) {
      const double u = rng.uniform();
      pos += 1.0 + std::floor(std::log1p(-u) / log1mp);
      if (pos >= static_cast<double>(bits_per_line)) break;
      // This cell's retention quantile, uniform within the weak tail: it
      // starts failing at the smallest k with p_k >= u2.
      const double u2 = p_cap * rng.uniform();
      std::uint32_t fail_from = 1;
      while (fail_from <= max_ext_ && p_k[fail_from - 1] <= u2) ++fail_from;
      for (std::uint32_t k = fail_from; k <= max_ext_; ++k) {
        std::uint16_t& c = fail_at_[s * max_ext_ + (k - 1)];
        if (c < 0xFFFF) ++c;
      }
    }
  }
}

std::shared_ptr<const WeakCellMap> WeakCellMap::interned(
    const FaultConfig& cfg, std::uint32_t sets, std::uint32_t ways,
    std::uint32_t bits_per_line, const CellRetentionModel& model) {
  // Entries hold weak references, so a map dies with its last run; `recent`
  // keeps the latest one alive across the gap between consecutive runs.
  // Entries whose map has died are pruned, so at most one idle map and a
  // handful of small entries outlive their users.
  static std::mutex mu;
  static std::map<MapKey, std::shared_ptr<InternEntry>> table;
  static std::shared_ptr<const WeakCellMap> recent;

  const MapKey key{cfg.seed,
                   std::bit_cast<std::uint64_t>(model.median_multiple),
                   std::bit_cast<std::uint64_t>(model.sigma),
                   cfg.max_tracked_extension,
                   sets,
                   ways,
                   bits_per_line};
  std::shared_ptr<InternEntry> entry;
  {
    const std::lock_guard<std::mutex> lock(mu);
    std::shared_ptr<InternEntry>& slot = table[key];
    if (!slot) slot = std::make_shared<InternEntry>();
    entry = slot;
  }
  std::shared_ptr<const WeakCellMap> map;
  {
    const std::lock_guard<std::mutex> lock(entry->build);
    map = entry->map.lock();
    if (!map) {
      map = std::make_shared<const WeakCellMap>(cfg, sets, ways, bits_per_line, model);
      entry->map = map;
    }
  }
  std::shared_ptr<const WeakCellMap> retired;  // freed outside the lock
  {
    const std::lock_guard<std::mutex> lock(mu);
    retired = std::exchange(recent, map);
    // An entry only this table references has no sampling in flight, so
    // its weak pointer can be read here without the build lock.
    std::erase_if(table, [](const auto& kv) {
      return kv.second.use_count() == 1 && kv.second->map.expired();
    });
  }
  return map;
}

std::uint64_t WeakCellMap::sampled_count() noexcept {
  return g_sampled.load(std::memory_order_relaxed);
}

FaultInjector::FaultInjector(const FaultConfig& cfg, std::uint32_t sets,
                             std::uint32_t ways, std::uint32_t bits_per_line,
                             const CellRetentionModel& model)
    : FaultInjector(cfg, std::make_shared<const WeakCellMap>(cfg, sets, ways,
                                                             bits_per_line, model)) {}

FaultInjector::FaultInjector(const FaultConfig& cfg,
                             std::shared_ptr<const WeakCellMap> map)
    : map_(std::move(map)),
      sets_(map_->sets()),
      ways_(map_->ways()),
      disable_threshold_(cfg.disable_threshold) {
  const std::size_t slots = static_cast<std::size_t>(sets_) * ways_;
  streak_.assign(slots, 0);
  corrected_.assign(slots, 0);
}

void FaultInjector::on_refresh_epoch(cache::SetAssocCache& l2,
                                     std::uint32_t extension,
                                     std::uint32_t correctable, cycle_t now,
                                     const DropHook& on_drop) {
  ++counters_.scans;
  if (listed_ext_ == extension) {
    for (const std::uint32_t i : live_) {
      (void)visit(l2, i / ways_, i % ways_, extension, correctable, now, on_drop);
    }
    return;
  }
  live_.clear();
  for (std::uint32_t set = 0; set < sets_; ++set) {
    for (std::uint32_t way = 0; way < ways_; ++way) {
      if (visit(l2, set, way, extension, correctable, now, on_drop)) {
        live_.push_back(static_cast<std::uint32_t>(slot(set, way)));
      }
    }
  }
  listed_ext_ = extension;
}

bool FaultInjector::visit(cache::SetAssocCache& l2, std::uint32_t set,
                          std::uint32_t way, std::uint32_t extension,
                          std::uint32_t correctable, cycle_t now,
                          const DropHook& on_drop) {
  const std::size_t i = slot(set, way);
  const std::uint32_t failed = failed_bits(set, way, extension);
  if (l2.slot_disabled(set, way) || !l2.slot_valid(set, way)) {
    corrected_[i] = 0;
    return failed > 0 || streak_[i] != 0;
  }
  if (failed == 0) {
    corrected_[i] = 0;
    streak_[i] = 0;
    return false;
  }
  if (failed <= correctable) {
    ++counters_.corrected_lines;
    corrected_[i] = 1;
    streak_[i] = 0;
    return true;
  }
  // Detected-uncorrectable: the line's content is gone. Clean lines can
  // be re-fetched from memory; dirty ones cannot.
  const block_t blk = l2.slot_block(set, way);
  const bool l2_dirty = l2.slot_dirty(set, way);
  l2.invalidate_slot(set, way, now);
  corrected_[i] = 0;
  const bool upper_dirty = on_drop ? on_drop(blk, l2_dirty) : false;
  if (l2_dirty || upper_dirty) {
    ++counters_.data_loss_events;
  } else {
    ++counters_.refetches;
  }
  if (streak_[i] < 0xFF) ++streak_[i];
  if (streak_[i] >= disable_threshold_) {
    if (l2.disable_slot(set, way, now)) ++counters_.disabled_lines;
  }
  return true;
}

bool FaultInjector::corrected_hit(std::uint32_t set, std::uint32_t way) {
  if (way >= ways_ || corrected_[slot(set, way)] == 0) return false;
  ++counters_.corrected_reads;
  return true;
}

void FaultInjector::on_fill_slot(std::uint32_t set, std::uint32_t way) {
  if (way < ways_) corrected_[slot(set, way)] = 0;
}

std::uint64_t FaultInjector::total_weak_cells(std::uint32_t extension) const {
  std::uint64_t total = 0;
  for (std::uint32_t set = 0; set < sets_; ++set) {
    for (std::uint32_t way = 0; way < ways_; ++way) {
      total += failed_bits(set, way, extension);
    }
  }
  return total;
}

}  // namespace esteem::edram
