#include "cpu/memory_system.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "edram/ecc.hpp"
#include "edram/smart_refresh.hpp"
#include "refrint/rpv.hpp"
#include "trace/access.hpp"

namespace esteem::cpu {

namespace {

cache::CacheParams l1_params(const SystemConfig& cfg) {
  return {cfg.l1.geom.sets(), cfg.l1.geom.ways};
}

cache::CacheParams l2_params(const SystemConfig& cfg) {
  return {cfg.l2.geom.sets(), cfg.l2.geom.ways};
}

/// The refresh policy a lane runs for `technique`. RPD and Cache Decay act
/// on `l2` itself; ESTEEM refreshes like periodic-valid, and its controller
/// lives on the hierarchy side.
std::unique_ptr<edram::RefreshPolicy> make_policy(const SystemConfig& cfg,
                                                  Technique technique,
                                                  cache::SetAssocCache& l2) {
  const cycle_t retention = cfg.retention_cycles();
  switch (technique) {
    case Technique::BaselinePeriodicAll:
      return std::make_unique<edram::PeriodicAllPolicy>(cfg.l2.geom.lines(), retention);
    case Technique::PeriodicValid:
      return std::make_unique<edram::PeriodicValidPolicy>(retention);
    case Technique::RefrintRPV:
      return std::make_unique<refrint::PolyphaseValidPolicy>(
          l2.sets(), l2.ways(), cfg.edram.rpv_phases, retention);
    case Technique::RefrintRPD:
      return std::make_unique<refrint::PolyphaseDirtyPolicy>(l2, cfg.edram.rpv_phases,
                                                             retention);
    case Technique::SmartRefresh:
      return std::make_unique<edram::SmartRefreshPolicy>(
          l2.sets(), l2.ways(), retention,
          std::max<cycle_t>(1, retention / cfg.edram.rpv_phases));
    case Technique::EccExtended: {
      edram::CellRetentionModel model;
      if (cfg.faults.enabled) {
        // The extension must be chosen against the same cell population the
        // injector samples from, or the safety target is meaningless.
        model.median_multiple = cfg.faults.median_multiple;
        model.sigma = cfg.faults.sigma;
      }
      const std::uint32_t ext = edram::max_safe_extension(
          /*bits_per_line=*/cfg.l2.geom.line_bytes * 8, cfg.edram.ecc_correctable,
          cfg.edram.ecc_target_line_failure, model);
      return std::make_unique<edram::EccRefreshPolicy>(retention, ext);
    }
    case Technique::CacheDecay:
      return std::make_unique<edram::CacheDecayPolicy>(
          l2, retention,
          static_cast<cycle_t>(kDecayIntervalRetentions * static_cast<double>(retention)),
          /*check_period=*/retention);
    case Technique::Esteem:
      // ESTEEM refreshes only the valid blocks of the active portion (§3.1);
      // valid lines exist only in active ways, so periodic-valid counting is
      // exact. The saving beyond that comes from the controller shrinking
      // the valid footprint and F_A.
      return std::make_unique<edram::PeriodicValidPolicy>(retention);
  }
  throw std::invalid_argument("MemorySystem: unknown technique");
}

}  // namespace

RefreshLane::RefreshLane(const SystemConfig& cfg, Technique t,
                         std::unique_ptr<edram::RefreshPolicy> p)
    : technique(t),
      policy(std::move(p)),
      banks(cfg.l2.banks, cfg.l2.geom.sets(), cfg.l2.refresh_occupancy_cycles,
            cfg.l2.access_occupancy_cycles, cfg.l2.queue_pressure),
      mm({cfg.mem.latency_cycles, cfg.mem_service_cycles()}),
      retention(static_cast<double>(cfg.retention_cycles())),
      clocks(cfg.ncores) {
  sync_bank_load(0);
}

MemorySystem::LaneFanout::LaneFanout(std::vector<RefreshLane>& lanes) : lanes_(lanes) {
  for (RefreshLane& ln : lanes_) {
    if (ln.policy->wants_touch()) touch_.push_back(&ln);
  }
}

// The L2 stamps each event with one cycle; every lane reads its own instead.
void MemorySystem::LaneFanout::on_fill(std::uint32_t set, std::uint32_t way,
                                       block_t blk, cycle_t) {
  for (RefreshLane& ln : lanes_) ln.policy->on_fill(set, way, blk, ln.at);
}

void MemorySystem::LaneFanout::on_touch(std::uint32_t set, std::uint32_t way, cycle_t) {
  for (RefreshLane* ln : touch_) ln->policy->on_touch(set, way, ln->at);
}

void MemorySystem::LaneFanout::on_invalidate(std::uint32_t set, std::uint32_t way,
                                             bool dirty, cycle_t) {
  for (RefreshLane& ln : lanes_) ln.policy->on_invalidate(set, way, dirty, ln.at);
}

MemorySystem::MemorySystem(const SystemConfig& cfg, Technique technique)
    : MemorySystem(cfg, std::vector<Technique>{technique}) {}

MemorySystem::MemorySystem(const SystemConfig& cfg,
                           const std::vector<Technique>& techniques)
    : cfg_(cfg),
      l2_(l2_params(cfg), "L2"),
      modules_(cfg.l2.geom.sets(), cfg.esteem.modules) {
  cfg_.validate();
  // cpu::System offsets core c's blocks by c << kCoreSpanBits, so blocks are
  // below ncores << kCoreSpanBits; a cache slot holds kTagBits of tag above
  // the set index.
  for (const CacheGeometry* geom : {&cfg_.l1.geom, &cfg_.l2.geom}) {
    if (std::uint64_t{cfg_.ncores} >
        (std::uint64_t{geom->sets()}
         << (cache::SetAssocCache::kTagBits - trace::kCoreSpanBits))) {
      throw std::invalid_argument(
          "MemorySystem: " + std::to_string(cfg_.ncores) + " cores need at least " +
          std::to_string((cfg_.ncores + 3) / 4) + " sets per cache (a " +
          std::to_string(geom->size_bytes) + "-byte cache has " +
          std::to_string(geom->sets()) + ")");
    }
  }
  if (techniques.empty()) {
    throw std::invalid_argument("MemorySystem: need at least one technique");
  }
  if (techniques.size() > 1) {
    for (Technique t : techniques) {
      if (!fusable(cfg_, t)) {
        throw std::invalid_argument(
            "MemorySystem: " + std::string(to_string(t)) +
            " cannot share the hierarchy with other lanes under this config");
      }
    }
  }

  l1_.reserve(cfg.ncores);
  for (std::uint32_t c = 0; c < cfg.ncores; ++c) {
    l1_.emplace_back(l1_params(cfg), "L1-" + std::to_string(c));
  }

  lanes_.reserve(techniques.size());
  for (Technique t : techniques) lanes_.emplace_back(cfg_, t, make_policy(cfg_, t, l2_));

  RefreshLane& lane0 = lanes_[0];
  if (lane0.technique == Technique::CacheDecay) {
    decay_ = static_cast<edram::CacheDecayPolicy*>(lane0.policy.get());
  } else if (lane0.technique == Technique::Esteem) {
    leaders_ = std::make_unique<profiler::LeaderSets>(
        l2_.sets(), cfg.esteem.sampling_ratio, modules_);
    profiler_ = std::make_unique<profiler::ModuleProfiler>(modules_, l2_.ways(),
                                                           *leaders_);
    controller_ = std::make_unique<core::EsteemController>(
        l2_, modules_, *leaders_, *profiler_, cfg.esteem);
  }
  if (lanes_.size() == 1) {
    l2_.set_listener(lane0.policy.get());
  } else {
    fanout_ = std::make_unique<LaneFanout>(lanes_);
    l2_.set_listener(fanout_.get());
  }
  // The O(ways) per-hit LRU-position scan feeds only the ESTEEM profiler,
  // which keeps leader-set hits alone: l2_access asks for it on those sets
  // only. The L1s have no consumer ever.
  l2_.set_lru_tracking(false);
  for (auto& l1 : l1_) l1.set_lru_tracking(false);

  if (cfg_.faults.enabled) {
    edram::CellRetentionModel model;
    model.median_multiple = cfg_.faults.median_multiple;
    model.sigma = cfg_.faults.sigma;
    if (lane0.technique == Technique::EccExtended) {
      auto* ecc = static_cast<edram::EccRefreshPolicy*>(lane0.policy.get());
      fault_extension_ = ecc->extension();
      fault_correctable_ = cfg_.edram.ecc_correctable;
      // The map clamps extensions past its range, which would under-count
      // the decayed cells of every epoch.
      if (fault_extension_ > cfg_.faults.max_tracked_extension) {
        throw std::invalid_argument(
            "ecc-extended refresh at extension " + std::to_string(fault_extension_) +
            " needs [faults] max_tracked_extension >= " +
            std::to_string(fault_extension_) + " (it is " +
            std::to_string(cfg_.faults.max_tracked_extension) + ")");
      }
    }
    faults_ = std::make_unique<edram::FaultInjector>(
        cfg_.faults,
        edram::WeakCellMap::interned(cfg_.faults, l2_.sets(), l2_.ways(),
                                     cfg_.l2.geom.line_bytes * 8, model));
    fault_epoch_cycles_ = cfg.retention_cycles() * fault_extension_;
    fault_next_epoch_ = fault_epoch_cycles_;
  }
}

void MemorySystem::pump_faults(cycle_t now) {
  if (!faults_) return;
  while (now >= fault_next_epoch_) {
    const cycle_t boundary = fault_next_epoch_;
    faults_->on_refresh_epoch(
        l2_, fault_extension_, fault_correctable_, boundary,
        [&](block_t blk, bool) {
          // Inclusion: a line dropped from L2 must leave the L1s too. A
          // dirty L1 copy means the freshest data is lost with it.
          bool upper_dirty = false;
          for (auto& l1 : l1_) upper_dirty |= l1.invalidate(blk, boundary);
          return upper_dirty;
        });
    fault_next_epoch_ += fault_epoch_cycles_;
  }
}

// Everything that decides the outcome runs once; everything timed runs per
// lane. Faults, the profiler and the controller exist only on a single
// lane, so lane 0's cycle is the run's cycle wherever they need one.
void MemorySystem::l2_access(block_t block, bool is_store, bool demand) {
  const std::span<RefreshLane> lanes(lanes_);
  for (RefreshLane& ln : lanes) ln.advance(ln.at);
  pump_faults(lanes[0].at);
  const std::uint32_t set = l2_.set_index_of(block);
  for (RefreshLane& ln : lanes) {
    ln.l2_latency = cfg_.l2.latency_cycles + (warming_ ? 0 : ln.banks.access(set, ln.at));
  }

  const bool rank = profiler_ && leaders_->is_leader(set);
  const cache::AccessOutcome out = l2_.access(block, is_store, lanes[0].at, rank);

  if (out.hit) {
    // Leader-set hits feed the ATD histograms. Writeback accesses are
    // profiled too: they carry the same recency information and enrich the
    // per-interval sample count.
    if (profiler_) profiler_->record_hit(set, out.lru_pos);
    if (demand) ++stats_.demand_l2_hits;
    if (faults_ && faults_->corrected_hit(set, out.way)) {
      // Reading a line with decayed-but-correctable bits goes through the
      // ECC decoder's correction path.
      lanes[0].l2_latency += cfg_.faults.correction_latency_cycles;
    }
  } else {
    if (demand) {
      ++stats_.demand_l2_misses;
      // The fill is fetched from main memory after the L2 lookup resolves.
      // Warming mode charges the unloaded latency without occupying the
      // channel: the fill still happens functionally (the allocate above),
      // but its timing must not leak into the next measured window.
      for (RefreshLane& ln : lanes) {
        ln.l2_latency += warming_ ? cfg_.mem.latency_cycles
                                  : ln.mm.read(ln.at + ln.l2_latency);
      }
    }
    // A writeback that misses L2 allocates without a memory fetch: the whole
    // line is being written.
    if (faults_ && out.way != cache::kNoWay) faults_->on_fill_slot(set, out.way);
  }

  if (out.victim != kInvalidBlock) {
    // Evicted L2 lines: dirty ones are written back to memory; all are
    // back-invalidated from the L1s to preserve inclusion.
    if (out.victim_dirty) {
      if (!warming_) {
        for (RefreshLane& ln : lanes) ln.mm.write(ln.at + ln.l2_latency);
      }
      ++stats_.mm_writebacks;
    }
    for (auto& l1 : l1_) l1.invalidate(out.victim, lanes[0].at);
  }
}

template <class IssueFn>
bool MemorySystem::access_lanes(std::uint32_t core, block_t block, bool is_store,
                                IssueFn&& issue) {
  ++accesses_since_tick_;
  const std::span<RefreshLane> lanes(lanes_);
  // The L1s have no listener, so the cycle handed to them is never read.
  const cache::AccessOutcome out = l1_[core].access(block, is_store, issue(lanes[0]));
  if (out.hit) return true;
  // Demand fill from L2 (loads and store-allocates alike read the line;
  // dirtiness lives in L1 until the line is evicted).
  const cycle_t l1_latency = cfg_.l1.latency_cycles;
  for (RefreshLane& ln : lanes) {
    ln.issue = issue(ln);
    ln.at = ln.issue + l1_latency;
  }
  l2_access(block, /*is_store=*/false, /*demand=*/true);
  for (RefreshLane& ln : lanes) ln.latency = l1_latency + ln.l2_latency;
  if (out.victim != kInvalidBlock && out.victim_dirty) {
    // Posted writeback of the L1 victim into L2; does not stall the core.
    ++stats_.l2_writeback_accesses;
    for (RefreshLane& ln : lanes) ln.at = ln.issue + ln.latency;
    l2_access(out.victim, /*is_store=*/true, /*demand=*/false);
  }
  return false;
}

cycle_t MemorySystem::access(std::uint32_t core, block_t block, bool is_store,
                             cycle_t now) {
  if (access_lanes(core, block, is_store, [now](const RefreshLane&) { return now; })) {
    return cfg_.l1.latency_cycles;
  }
  return lanes_[0].latency;
}

void MemorySystem::step(std::uint32_t core, std::uint32_t gap, block_t block,
                        bool is_store) {
  // One cycle per non-memory instruction, then the access.
  const auto issue = [core, gap](const RefreshLane& ln) {
    return ln.clocks[core].cycles + gap;
  };
  if (access_lanes(core, block, is_store, issue)) {
    for (RefreshLane& ln : lanes_) ln.clocks[core].cycles += gap + cfg_.l1.latency_cycles;
    return;
  }
  for (RefreshLane& ln : lanes_) ln.clocks[core].cycles = ln.issue + ln.latency;
}

void MemorySystem::advance_clock(std::uint32_t core, instr_t n, double cpi) {
  for (RefreshLane& ln : lanes_) {
    CoreClock& clk = ln.clocks[core];
    const double due = static_cast<double>(n) * cpi + clk.carry;
    const auto whole = static_cast<cycle_t>(due);
    clk.carry = due - static_cast<double>(whole);
    clk.cycles += whole;
  }
}

void MemorySystem::step_warm(std::uint32_t core, instr_t retired, block_t block,
                             bool is_store, double cpi) {
  advance_clock(core, retired, cpi);
  (void)access_lanes(core, block, is_store,
                     [core](const RefreshLane& ln) { return ln.clocks[core].cycles; });
}

void MemorySystem::idle_until(std::uint32_t core, cycle_t t) noexcept {
  for (RefreshLane& ln : lanes_) {
    if (t > ln.clocks[core].cycles) ln.clocks[core].cycles = t;
  }
}

void MemorySystem::arm_intervals() {
  for (RefreshLane& ln : lanes_) ln.next_tick = ln.wall() + cfg_.esteem.interval_cycles;
}

void MemorySystem::tick_interval(cycle_t now) {
  for (RefreshLane& ln : lanes_) tick(ln, now);
}

void MemorySystem::tick(RefreshLane& ln, cycle_t now) {
  ln.advance(now);
  pump_faults(now);

  // Close the F_A integral over the elapsed window at the old value.
  ln.close_fa(now);

  // In a sampled run, an interval that saw no hierarchy accesses at all fell
  // entirely inside a fast-forward skip: the controller must not read that
  // measurement gap as idleness (decaying its history and over-shrinking),
  // so its decision is held. Live intervals — even ones whose leader sets
  // sampled nothing — decide normally, matching exhaustive behaviour.
  const bool skip_gap = sampled_mode_ && accesses_since_tick_ == 0;
  accesses_since_tick_ = 0;

  if (controller_ && !skip_gap) {
    const core::ReconfigResult r =
        controller_->run_interval(now, [&](block_t) { ln.mm.write(now); });
    stats_.reconfig_transitions += r.transitions;
    stats_.reconfig_writebacks += r.writebacks;
    stats_.mm_writebacks += r.writebacks;
    ln.fa_current = controller_->active_fraction();
  } else if (decay_ != nullptr) {
    // Reconcile decay's power gating with the energy counters: dirty lines
    // it flushed become posted memory writes, its gate toggles are N_L, and
    // F_A follows the powered fraction of the array.
    const std::uint64_t wb = decay_->decay_writebacks();
    for (std::uint64_t i = decay_wb_seen_; i < wb; ++i) ln.mm.write(now);
    stats_.mm_writebacks += wb - decay_wb_seen_;
    stats_.reconfig_writebacks += wb - decay_wb_seen_;
    decay_wb_seen_ = wb;
    const std::uint64_t trans = decay_->transitions();
    stats_.reconfig_transitions += trans - decay_trans_seen_;
    decay_trans_seen_ = trans;
    ln.fa_current = decay_->active_fraction();
  }

  // Valid/active footprint changed: re-derive the bank refresh load.
  ln.sync_bank_load(now);

  if (ln.telemetry != nullptr) sample_interval(ln, now);
}

void MemorySystem::set_telemetry(telemetry::RunSink* sink, cycle_t now,
                                 std::size_t lane) {
  RefreshLane& ln = lanes_[lane];
  ln.telemetry = sink;
  ln.tel_last = {};  // measurement counters were just reset
  if (sink != nullptr) {
    sink->start_cycle = now;
    sink->start_ways = module_active_ways();
  }
}

void MemorySystem::sample_interval(RefreshLane& ln, cycle_t now) {
  const std::uint64_t hits = stats_.demand_l2_hits;
  const std::uint64_t misses = stats_.demand_l2_misses;
  const std::uint64_t refr = ln.refreshes();
  const std::uint64_t trans = stats_.reconfig_transitions;
  const std::uint64_t rwb = stats_.reconfig_writebacks;
  const edram::FaultCounters fc = fault_counters();
  const std::uint64_t corrected = fc.corrected_reads;
  const std::uint64_t uncorrectable = fc.uncorrectable();
  const RefreshLane::TelemetryBaseline& last = ln.tel_last;

  // Count columns are per-interval deltas; active_ratio and the per-module
  // way counts are the state applied at this boundary (the same value the
  // Figure 2 timeline records). Order must match telemetry::interval_columns.
  std::vector<double> row{
      active_fraction(),
      static_cast<double>(hits - last.demand_hits),
      static_cast<double>(misses - last.demand_misses),
      static_cast<double>(refr - last.refreshes),
      static_cast<double>(trans - last.transitions),
      static_cast<double>(rwb - last.reconfig_writebacks),
      static_cast<double>(corrected - last.corrected_reads),
      static_cast<double>(uncorrectable - last.uncorrectable)};
  for (std::uint32_t w : module_active_ways()) row.push_back(static_cast<double>(w));
  ln.telemetry->recorder.record(now, row);
  ln.tel_last = {hits, misses, refr, trans, rwb, corrected, uncorrectable};
}

void MemorySystem::reset_hierarchy() {
  if (faults_) faults_->reset_counters();
  l2_.reset_stats();
  for (auto& l1 : l1_) l1.reset_stats();
  stats_ = {};
  if (profiler_) profiler_->clear();
  if (decay_ != nullptr) {
    // Consume warm-up decay events so they are not charged to measurement.
    decay_wb_seen_ = decay_->decay_writebacks();
    decay_trans_seen_ = decay_->transitions();
    lanes_[0].fa_current = decay_->active_fraction();
  }
}

void MemorySystem::reset_lane(RefreshLane& ln, cycle_t now) {
  ln.mm.reset_stats();
  ln.refresh_baseline = ln.total_refreshes;
  ln.fa_cycles = 0.0;
  ln.fa_last_update = now;
  ln.measure_start = now;
  for (CoreClock& clk : ln.clocks) clk.start = clk.cycles;
}

void MemorySystem::start_measurement() {
  for (RefreshLane& ln : lanes_) ln.advance(ln.wall());
  pump_faults(lanes_[0].wall());
  reset_hierarchy();
  for (RefreshLane& ln : lanes_) reset_lane(ln, ln.wall());
}

RawRunResult MemorySystem::finish(std::size_t lane) {
  RefreshLane& ln = lanes_[lane];
  cycle_t end = 0;
  for (const CoreClock& clk : ln.clocks) end = std::max(end, clk.cycles);
  ln.advance(end);
  pump_faults(end);
  ln.close_fa(end);

  RawRunResult r;
  r.wall_cycles = end - ln.measure_start;
  r.counters = energy_counters(end, lane);
  r.mem_stats = stats_;
  r.refreshes = ln.refreshes();
  r.demand_misses = stats_.demand_l2_misses;
  r.faults = fault_counters();
  r.disabled_slots = disabled_slots();
  r.avg_active_ratio =
      r.counters.seconds > 0.0 ? r.counters.fa_seconds / r.counters.seconds : 1.0;
  return r;
}

energy::EnergyCounters MemorySystem::energy_counters(cycle_t now, std::size_t lane) const {
  const RefreshLane& ln = lanes_[lane];
  const double to_seconds = 1.0 / (cfg_.freq_ghz * 1e9);
  energy::EnergyCounters c;
  c.seconds = static_cast<double>(now - ln.measure_start) * to_seconds;
  // F_A integral: closed portion plus the still-open window at the current value.
  c.fa_seconds =
      (ln.fa_cycles + ln.fa_current * static_cast<double>(now - ln.fa_last_update)) *
      to_seconds;
  c.l2_hits = l2_.stats().hits;
  c.l2_misses = l2_.stats().misses;
  c.refreshes = ln.refreshes();
  c.mm_accesses = ln.mm.stats().reads + ln.mm.stats().writes;
  c.transitions = stats_.reconfig_transitions;
  if (faults_) c.ecc_corrections = faults_->counters().corrected_reads;
  return c;
}

FlowSnapshot MemorySystem::flow_snapshot(cycle_t now) const {
  const RefreshLane& ln = lanes_[0];
  FlowSnapshot s;
  s.l2_hits = l2_.stats().hits;
  s.l2_misses = l2_.stats().misses;
  s.demand_hits = stats_.demand_l2_hits;
  s.demand_misses = stats_.demand_l2_misses;
  s.l2_writeback_accesses = stats_.l2_writeback_accesses;
  s.mm_reads = ln.mm.stats().reads;
  s.mm_writes = ln.mm.stats().writes;
  s.mm_writebacks = stats_.mm_writebacks;
  s.reconfig_writebacks = stats_.reconfig_writebacks;
  s.corrected_reads = faults_ ? faults_->counters().corrected_reads : 0;
  s.refreshes = ln.refreshes();
  s.fa_cycles =
      ln.fa_cycles + ln.fa_current * static_cast<double>(now - ln.fa_last_update);
  return s;
}

double MemorySystem::active_fraction() const noexcept {
  if (controller_) return controller_->active_fraction();
  if (decay_ != nullptr) return decay_->active_fraction();
  return 1.0;
}

std::vector<std::uint32_t> MemorySystem::module_active_ways() const {
  return controller_ ? controller_->module_active_ways() : std::vector<std::uint32_t>{};
}

}  // namespace esteem::cpu
