#include "edram/fault_injection.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <compare>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
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

}  // namespace

WeakCellMap::WeakCellMap(const FaultConfig& cfg, std::uint32_t sets,
                         std::uint32_t ways, std::uint32_t bits_per_line,
                         const CellRetentionModel& model)
    : seed_(cfg.seed),
      sets_(sets),
      ways_(ways),
      bits_per_line_(bits_per_line),
      max_ext_(cfg.max_tracked_extension) {
  if (sets_ == 0 || ways_ == 0) {
    throw std::invalid_argument("fault injector: empty cache");
  }
  if (bits_per_line == 0 || bits_per_line > 0xFFFF) {
    throw std::invalid_argument("fault injector: bits per line must be in [1, 65535]");
  }
  if (max_ext_ == 0 || max_ext_ > kMaxTrackedExtension) {
    throw std::invalid_argument("fault injector: tracked extension must be in [1, " +
                                std::to_string(kMaxTrackedExtension) + "]");
  }
  reach_.assign(max_ext_ + 1, 0.0);
  for (std::uint32_t k = 1; k <= max_ext_; ++k) {
    const double p = cell_failure_probability(static_cast<double>(k), model);
    reach_[k] = std::max(reach_[k - 1], p);
    if (k == max_ext_) p_cap_ = p;
  }
  log1mp_ = std::log1p(-std::min(p_cap_, 1.0 - 1e-15));
  columns_ = std::vector<Column>(max_ext_ + 1);
}

const std::uint16_t* WeakCellMap::column(std::uint32_t extension) const {
  const std::uint32_t k = std::min(extension, max_ext_);
  Column& c = columns_[k];
  std::call_once(c.sampled, [&] { sample(k, c.fails); });
  return c.fails.data();
}

void WeakCellMap::sample(std::uint32_t extension, std::vector<std::uint16_t>& out) const {
  const std::size_t slots = static_cast<std::size_t>(sets_) * ways_;
  out.assign(slots, 0);
  // Cells above p_cap_ never decay within the tracked range, and a cell
  // whose quantile is drawn from [0, p_cap_) counts here only below reach.
  const double reach = reach_[extension];
  if (p_cap_ <= 0.0 || reach <= 0.0) return;
  g_sampled.fetch_add(1, std::memory_order_relaxed);

  for (std::size_t s = 0; s < slots; ++s) {
    // Independent deterministic stream per slot: the map depends only on
    // (seed, slot), not on sampling order, extension or workload.
    std::uint64_t seed_state = seed_ + 0x9E3779B97F4A7C15ULL * (s + 1);
    Rng rng(splitmix64(seed_state));

    // Weak-cell positions via geometric skips: E[iterations] = bits * p_cap.
    // Positions strictly increase, so the count never exceeds
    // bits_per_line_ <= 65535.
    std::uint32_t failed = 0;
    double pos = -1.0;
    for (;;) {
      const double u = rng.uniform();
      pos += 1.0 + std::floor(std::log1p(-u) / log1mp_);
      if (pos >= static_cast<double>(bits_per_line_)) break;
      // This cell's retention quantile, uniform within the weak tail: it
      // starts failing at the smallest k with p_k > u2, which is at most
      // `extension` exactly when u2 < max(p_1..p_extension).
      const double u2 = p_cap_ * rng.uniform();
      failed += u2 < reach ? 1 : 0;
    }
    out[s] = static_cast<std::uint16_t>(failed);
  }
}

std::shared_ptr<const WeakCellMap> WeakCellMap::interned(
    const FaultConfig& cfg, std::uint32_t sets, std::uint32_t ways,
    std::uint32_t bits_per_line, const CellRetentionModel& model) {
  // Entries hold weak references, so a map dies with its last run; `recent`
  // keeps the latest one alive across the gap between consecutive runs.
  // Entries whose map has died are pruned, so at most one idle map and a
  // handful of small entries outlive their users. Building a map samples
  // nothing, so it happens under the lock.
  static std::mutex mu;
  static std::map<MapKey, std::weak_ptr<const WeakCellMap>> table;
  static std::shared_ptr<const WeakCellMap> recent;

  const MapKey key{cfg.seed,
                   std::bit_cast<std::uint64_t>(model.median_multiple),
                   std::bit_cast<std::uint64_t>(model.sigma),
                   cfg.max_tracked_extension,
                   sets,
                   ways,
                   bits_per_line};
  std::shared_ptr<const WeakCellMap> map;
  std::shared_ptr<const WeakCellMap> retired;  // freed outside the lock
  {
    const std::lock_guard<std::mutex> lock(mu);
    std::weak_ptr<const WeakCellMap>& slot = table[key];
    map = slot.lock();
    if (!map) {
      map = std::make_shared<const WeakCellMap>(cfg, sets, ways, bits_per_line, model);
      slot = map;
    }
    retired = std::exchange(recent, map);
    std::erase_if(table, [](const auto& kv) { return kv.second.expired(); });
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
  const std::uint16_t* fails = map_->column(extension);
  if (listed_ext_ == extension) {
    for (const std::uint32_t i : live_) {
      (void)visit(l2, i / ways_, i % ways_, fails[i], correctable, now, on_drop);
    }
    return;
  }
  live_.clear();
  for (std::uint32_t set = 0; set < sets_; ++set) {
    for (std::uint32_t way = 0; way < ways_; ++way) {
      if (visit(l2, set, way, fails[slot(set, way)], correctable, now, on_drop)) {
        live_.push_back(static_cast<std::uint32_t>(slot(set, way)));
      }
    }
  }
  listed_ext_ = extension;
}

bool FaultInjector::visit(cache::SetAssocCache& l2, std::uint32_t set,
                          std::uint32_t way, std::uint32_t failed,
                          std::uint32_t correctable, cycle_t now,
                          const DropHook& on_drop) {
  const std::size_t i = slot(set, way);
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
  const std::uint16_t* fails = map_->column(extension);
  return std::accumulate(fails, fails + static_cast<std::size_t>(sets_) * ways_,
                         std::uint64_t{0});
}

}  // namespace esteem::edram
