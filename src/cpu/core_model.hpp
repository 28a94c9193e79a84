// In-order core model with non-memory-instruction batching.
//
// Every non-memory instruction retires in one cycle; memory operations pay
// the hierarchy latency returned by MemorySystem. Trace generators emit
// (gap, memory-op) pairs, so the simulator's cost per retired instruction is
// amortized to O(1) over the gap. A core is its reference stream and its
// instruction count; its clock lives in each refresh lane of each memory
// system it drives, so one stream can drive several hierarchies and lanes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/types.hpp"
#include "cpu/memory_system.hpp"
#include "trace/access.hpp"

namespace esteem::cpu {

class Core {
 public:
  /// `block_offset` isolates this core's address space in multiprogrammed
  /// runs (each Table 1 pair runs two independent benchmarks).
  Core(std::uint32_t id, std::unique_ptr<trace::AccessGenerator> generator,
       block_t block_offset);

  /// Draws the next (gap, memory-op) batch once and executes it on every
  /// lane of every hierarchy of `mems`, in order; each lane advances its
  /// own clock for this core (MemorySystem::step).
  void step(std::span<const std::unique_ptr<MemorySystem>> mems);

  /// Sampling fast-forward: advances the generator past `n` instructions
  /// analytically (no memory accesses reach the hierarchy) and moves the
  /// core's clock at `cpi` cycles per instruction — the executor's running
  /// CPI estimate, so interval-based machinery downstream of the clock
  /// (refresh epochs, ESTEEM intervals) stays aligned with real time.
  void skip(MemorySystem& mem, instr_t n, double cpi);

  /// Sampling functional warming: executes the next batch against the
  /// hierarchy so cache/refresh/profiler state updates, but charges the
  /// estimated `cpi` instead of the measured latency (timing is not being
  /// measured in this segment, and warming-mode latencies are nominal).
  void step_warm(MemorySystem& mem, double cpi);

  std::uint32_t id() const noexcept { return id_; }
  instr_t instret() const noexcept { return instret_; }

 private:
  std::uint32_t id_;
  std::unique_ptr<trace::AccessGenerator> generator_;
  block_t block_offset_;
  instr_t instret_ = 0;
};

}  // namespace esteem::cpu
