#include "cpu/memory_system.hpp"

#include <stdexcept>
#include <string>

#include "edram/ecc.hpp"
#include "edram/smart_refresh.hpp"
#include "refrint/rpv.hpp"

namespace esteem::cpu {

namespace {

cache::CacheParams l1_params(const SystemConfig& cfg) {
  return {cfg.l1.geom.sets(), cfg.l1.geom.ways};
}

cache::CacheParams l2_params(const SystemConfig& cfg) {
  return {cfg.l2.geom.sets(), cfg.l2.geom.ways};
}

}  // namespace

MemorySystem::MemorySystem(const SystemConfig& cfg, Technique technique)
    : cfg_(cfg),
      technique_(technique),
      l2_(l2_params(cfg), "L2"),
      banks_(cfg.l2.banks, cfg.l2.geom.sets(), cfg.l2.refresh_occupancy_cycles,
             cfg.l2.access_occupancy_cycles, cfg.l2.queue_pressure),
      modules_(cfg.l2.geom.sets(), cfg.esteem.modules),
      mm_({cfg.mem.latency_cycles, cfg.mem_service_cycles()}) {
  cfg_.validate();

  l1_.reserve(cfg.ncores);
  for (std::uint32_t c = 0; c < cfg.ncores; ++c) {
    l1_.emplace_back(l1_params(cfg), "L1-" + std::to_string(c));
  }

  const cycle_t retention = cfg.retention_cycles();
  switch (technique_) {
    case Technique::BaselinePeriodicAll:
      policy_ = std::make_unique<edram::PeriodicAllPolicy>(cfg.l2.geom.lines(), retention);
      break;
    case Technique::PeriodicValid:
      policy_ = std::make_unique<edram::PeriodicValidPolicy>(retention);
      break;
    case Technique::RefrintRPV:
      policy_ = std::make_unique<refrint::PolyphaseValidPolicy>(
          l2_.sets(), l2_.ways(), cfg.edram.rpv_phases, retention);
      break;
    case Technique::RefrintRPD:
      policy_ = std::make_unique<refrint::PolyphaseDirtyPolicy>(
          l2_, cfg.edram.rpv_phases, retention);
      break;
    case Technique::SmartRefresh:
      policy_ = std::make_unique<edram::SmartRefreshPolicy>(
          l2_.sets(), l2_.ways(), retention,
          std::max<cycle_t>(1, retention / cfg.edram.rpv_phases));
      break;
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
      policy_ = std::make_unique<edram::EccRefreshPolicy>(retention, ext);
      break;
    }
    case Technique::CacheDecay: {
      auto decay = std::make_unique<edram::CacheDecayPolicy>(
          l2_, retention,
          static_cast<cycle_t>(kDecayIntervalRetentions *
                               static_cast<double>(retention)),
          /*check_period=*/retention);
      decay_ = decay.get();
      policy_ = std::move(decay);
      break;
    }
    case Technique::Esteem:
      // ESTEEM refreshes only the valid blocks of the active portion (§3.1);
      // valid lines exist only in active ways, so periodic-valid counting is
      // exact. The saving beyond that comes from the controller shrinking
      // the valid footprint and F_A.
      policy_ = std::make_unique<edram::PeriodicValidPolicy>(retention);
      leaders_ = std::make_unique<profiler::LeaderSets>(
          l2_.sets(), cfg.esteem.sampling_ratio, modules_);
      profiler_ = std::make_unique<profiler::ModuleProfiler>(modules_, l2_.ways(),
                                                             *leaders_);
      controller_ = std::make_unique<core::EsteemController>(
          l2_, modules_, *leaders_, *profiler_, cfg.esteem);
      break;
  }
  l2_.set_listener(policy_.get());
  // Fast lane: the O(ways) per-hit LRU-position scan feeds only the ESTEEM
  // leader-set profiler; every other configuration skips it. The L1s have
  // no consumer ever.
  l2_.set_lru_tracking(profiler_ != nullptr);
  for (auto& l1 : l1_) l1.set_lru_tracking(false);
  engine_ = std::make_unique<edram::RefreshEngine>(
      *policy_, &banks_, static_cast<double>(cfg.retention_cycles()));
  engine_->sync_bank_load(0);

  if (cfg_.faults.enabled) {
    edram::CellRetentionModel model;
    model.median_multiple = cfg_.faults.median_multiple;
    model.sigma = cfg_.faults.sigma;
    if (technique_ == Technique::EccExtended) {
      auto* ecc = static_cast<edram::EccRefreshPolicy*>(policy_.get());
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
    fault_epoch_cycles_ = retention * fault_extension_;
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

cycle_t MemorySystem::l2_access(block_t block, bool is_store, cycle_t now, bool demand) {
  engine_->advance(now);
  pump_faults(now);
  const std::uint32_t set = l2_.set_index_of(block);
  if (profiler_) profiler_->record_access(set);
  const cycle_t bank_wait = warming_ ? 0 : banks_.access(set, now);

  const cache::AccessOutcome out = l2_.access(block, is_store, now);
  cycle_t latency = cfg_.l2.latency_cycles + bank_wait;

  if (out.hit) {
    // Leader-set hits feed the ATD histograms. Writeback accesses are
    // profiled too: they carry the same recency information and enrich the
    // per-interval sample count.
    if (profiler_) profiler_->record_hit(set, out.lru_pos);
    if (demand) ++stats_.demand_l2_hits;
    if (faults_ && faults_->corrected_hit(set, out.way)) {
      // Reading a line with decayed-but-correctable bits goes through the
      // ECC decoder's correction path.
      latency += cfg_.faults.correction_latency_cycles;
    }
  } else {
    if (demand) {
      ++stats_.demand_l2_misses;
      // The fill is fetched from main memory after the L2 lookup resolves.
      // Warming mode charges the unloaded latency without occupying the
      // channel: the fill still happens functionally (the allocate above),
      // but its timing must not leak into the next measured window.
      latency += warming_ ? cfg_.mem.latency_cycles : mm_.read(now + latency);
    }
    // A writeback that misses L2 allocates without a memory fetch: the whole
    // line is being written.
    if (faults_ && out.way != cache::kNoWay) faults_->on_fill_slot(set, out.way);
  }

  if (out.victim != kInvalidBlock) {
    // Evicted L2 lines: dirty ones are written back to memory; all are
    // back-invalidated from the L1s to preserve inclusion.
    if (out.victim_dirty) {
      if (!warming_) mm_.write(now + latency);
      ++stats_.mm_writebacks;
    }
    for (auto& l1 : l1_) l1.invalidate(out.victim, now);
  }
  return latency;
}

cycle_t MemorySystem::access(std::uint32_t core, block_t block, bool is_store,
                             cycle_t now) {
  ++accesses_since_tick_;
  cache::SetAssocCache& l1 = l1_[core];
  const cache::AccessOutcome out = l1.access(block, is_store, now);
  cycle_t latency = cfg_.l1.latency_cycles;
  if (!out.hit) {
    // Demand fill from L2 (loads and store-allocates alike read the line;
    // dirtiness lives in L1 until the line is evicted).
    latency += l2_access(block, /*is_store=*/false, now + latency, /*demand=*/true);
    if (out.victim != kInvalidBlock && out.victim_dirty) {
      // Posted writeback of the L1 victim into L2; does not stall the core.
      ++stats_.l2_writeback_accesses;
      (void)l2_access(out.victim, /*is_store=*/true, now + latency, /*demand=*/false);
    }
  }
  return latency;
}

void MemorySystem::tick_interval(cycle_t now) {
  engine_->advance(now);
  pump_faults(now);

  // Close the F_A integral over the elapsed window at the old value.
  fa_cycles_ += fa_current_ * static_cast<double>(now - fa_last_update_);
  fa_last_update_ = now;

  // In a sampled run, an interval that saw no hierarchy accesses at all fell
  // entirely inside a fast-forward skip: the controller must not read that
  // measurement gap as idleness (decaying its history and over-shrinking),
  // so its decision is held. Live intervals — even ones whose leader sets
  // sampled nothing — decide normally, matching exhaustive behaviour.
  const bool skip_gap = sampled_mode_ && accesses_since_tick_ == 0;
  accesses_since_tick_ = 0;

  if (controller_ && !skip_gap) {
    const core::ReconfigResult r =
        controller_->run_interval(now, [&](block_t) { mm_.write(now); });
    stats_.reconfig_transitions += r.transitions;
    stats_.reconfig_writebacks += r.writebacks;
    stats_.mm_writebacks += r.writebacks;
    fa_current_ = controller_->active_fraction();
  } else if (decay_ != nullptr) {
    // Reconcile decay's power gating with the energy counters: dirty lines
    // it flushed become posted memory writes, its gate toggles are N_L, and
    // F_A follows the powered fraction of the array.
    const std::uint64_t wb = decay_->decay_writebacks();
    for (std::uint64_t i = decay_wb_seen_; i < wb; ++i) mm_.write(now);
    stats_.mm_writebacks += wb - decay_wb_seen_;
    stats_.reconfig_writebacks += wb - decay_wb_seen_;
    decay_wb_seen_ = wb;
    const std::uint64_t trans = decay_->transitions();
    stats_.reconfig_transitions += trans - decay_trans_seen_;
    decay_trans_seen_ = trans;
    fa_current_ = decay_->active_fraction();
  }

  // Valid/active footprint changed: re-derive the bank refresh load.
  engine_->sync_bank_load(now);

  if (telemetry_ != nullptr) sample_interval(now);
}

void MemorySystem::set_telemetry(telemetry::RunSink* sink, cycle_t now) {
  telemetry_ = sink;
  tel_last_ = {};  // measurement counters were just reset
  tel_last_cycle_ = now;
  tel_last_ways_ = module_active_ways();
}

void MemorySystem::sample_interval(cycle_t now) {
  telemetry::RunSink& sink = *telemetry_;
  const std::uint64_t hits = stats_.demand_l2_hits;
  const std::uint64_t misses = stats_.demand_l2_misses;
  const std::uint64_t refr = refreshes();
  const std::uint64_t trans = stats_.reconfig_transitions;
  const std::uint64_t rwb = stats_.reconfig_writebacks;
  const edram::FaultCounters fc = fault_counters();
  const std::uint64_t corrected = fc.corrected_reads;
  const std::uint64_t uncorrectable = fc.uncorrectable();
  const std::vector<std::uint32_t> ways = module_active_ways();

  if (sink.recorder) {
    // Count columns are per-interval deltas; active_ratio and the per-module
    // way counts are the state applied at this boundary (the same value the
    // Figure 2 timeline records). Order must match telemetry::interval_columns.
    std::vector<double> row{
        active_fraction(),
        static_cast<double>(hits - tel_last_.demand_hits),
        static_cast<double>(misses - tel_last_.demand_misses),
        static_cast<double>(refr - tel_last_.refreshes),
        static_cast<double>(trans - tel_last_.transitions),
        static_cast<double>(rwb - tel_last_.reconfig_writebacks),
        static_cast<double>(corrected - tel_last_.corrected_reads),
        static_cast<double>(uncorrectable - tel_last_.uncorrectable)};
    for (std::uint32_t w : ways) row.push_back(static_cast<double>(w));
    sink.recorder->record(now, row);
  }

  if (sink.trace != nullptr) {
    using telemetry::TraceEmitter;
    const double t0 = sink.sim_us(tel_last_cycle_);
    const double t1 = sink.sim_us(now);
    // Run lane: one span per interval with the headline deltas.
    sink.trace->complete(
        TraceEmitter::kSimPid, sink.sim_tid, "interval", t0, t1 - t0,
        "{\"hits\":" + std::to_string(hits - tel_last_.demand_hits) +
            ",\"misses\":" + std::to_string(misses - tel_last_.demand_misses) +
            ",\"refreshes\":" + std::to_string(refr - tel_last_.refreshes) + "}");
    // Module lanes: the way decision *in effect* during the elapsed window
    // (the decision taken at `now` governs the next span).
    for (std::size_t m = 0; m < tel_last_ways_.size(); ++m) {
      sink.trace->complete(
          TraceEmitter::kSimPid, sink.sim_tid + 1 + static_cast<std::uint32_t>(m),
          "ways=" + std::to_string(tel_last_ways_[m]), t0, t1 - t0,
          "{\"ways\":" + std::to_string(tel_last_ways_[m]) + "}");
    }
    if (trans > tel_last_.transitions) {
      sink.trace->instant(
          TraceEmitter::kSimPid, sink.sim_tid, "reconfig", t1,
          "{\"transitions\":" + std::to_string(trans - tel_last_.transitions) +
              ",\"writebacks\":" +
              std::to_string(rwb - tel_last_.reconfig_writebacks) + "}");
    }
    if (uncorrectable > tel_last_.uncorrectable) {
      sink.trace->instant(
          TraceEmitter::kSimPid, sink.sim_tid, "fault.uncorrectable", t1,
          "{\"events\":" + std::to_string(uncorrectable - tel_last_.uncorrectable) +
              "}");
    }
    sink.trace->counter(TraceEmitter::kSimPid, sink.label + ".active_ratio", t1,
                        active_fraction());
    sink.trace->counter(TraceEmitter::kSimPid, sink.label + ".refreshes_per_interval",
                        t1, static_cast<double>(refr - tel_last_.refreshes));
  }

  tel_last_ = {hits, misses, refr, trans, rwb, corrected, uncorrectable};
  tel_last_cycle_ = now;
  tel_last_ways_ = ways;
}

void MemorySystem::reset_measurement(cycle_t now) {
  engine_->advance(now);
  pump_faults(now);
  if (faults_) faults_->reset_counters();
  l2_.reset_stats();
  for (auto& l1 : l1_) l1.reset_stats();
  mm_.reset_stats();
  stats_ = {};
  refresh_baseline_ = engine_->total_refreshes();
  fa_cycles_ = 0.0;
  fa_last_update_ = now;
  measure_start_ = now;
  if (profiler_) profiler_->clear();
  if (decay_ != nullptr) {
    // Consume warm-up decay events so they are not charged to measurement.
    decay_wb_seen_ = decay_->decay_writebacks();
    decay_trans_seen_ = decay_->transitions();
    fa_current_ = decay_->active_fraction();
  }
}

void MemorySystem::finish(cycle_t now) {
  engine_->advance(now);
  pump_faults(now);
  fa_cycles_ += fa_current_ * static_cast<double>(now - fa_last_update_);
  fa_last_update_ = now;
}

energy::EnergyCounters MemorySystem::energy_counters(cycle_t now) const {
  const double to_seconds = 1.0 / (cfg_.freq_ghz * 1e9);
  energy::EnergyCounters c;
  c.seconds = static_cast<double>(now - measure_start_) * to_seconds;
  // F_A integral: closed portion plus the still-open window at the current value.
  c.fa_seconds = (fa_cycles_ + fa_current_ * static_cast<double>(now - fa_last_update_)) *
                 to_seconds;
  c.l2_hits = l2_.stats().hits;
  c.l2_misses = l2_.stats().misses;
  c.refreshes = refreshes();
  c.mm_accesses = mm_.stats().reads + mm_.stats().writes;
  c.transitions = stats_.reconfig_transitions;
  if (faults_) c.ecc_corrections = faults_->counters().corrected_reads;
  return c;
}

FlowSnapshot MemorySystem::flow_snapshot(cycle_t now) const {
  FlowSnapshot s;
  s.l2_hits = l2_.stats().hits;
  s.l2_misses = l2_.stats().misses;
  s.demand_hits = stats_.demand_l2_hits;
  s.demand_misses = stats_.demand_l2_misses;
  s.l2_writeback_accesses = stats_.l2_writeback_accesses;
  s.mm_reads = mm_.stats().reads;
  s.mm_writes = mm_.stats().writes;
  s.mm_writebacks = stats_.mm_writebacks;
  s.reconfig_writebacks = stats_.reconfig_writebacks;
  s.corrected_reads = faults_ ? faults_->counters().corrected_reads : 0;
  s.refreshes = refreshes();
  s.fa_cycles =
      fa_cycles_ + fa_current_ * static_cast<double>(now - fa_last_update_);
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
