// Memory-reference record produced by the synthetic trace generators.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace esteem::trace {

/// Width of one core's block-address space: cpu::System offsets core c's
/// blocks by `c << kCoreSpanBits`, so every stream must stay below
/// 2^kCoreSpanBits or it would alias another core's lines.
inline constexpr unsigned kCoreSpanBits = 44;

/// One memory operation, preceded by `gap` non-memory instructions.
/// Batching the non-memory instructions into a single count keeps the
/// simulator's cost proportional to memory operations only.
struct MemRef {
  block_t block = 0;        ///< Cache-block number (line granularity).
  std::uint32_t gap = 0;    ///< Non-memory instructions retired before this op.
  bool is_store = false;
};

/// Geometry hints generators need to shape set-level reuse distances.
struct GeneratorContext {
  std::uint32_t l2_sets = 4096;
  std::uint32_t line_bytes = 64;
};

/// Abstract pull-based stream of block numbers (no gaps/stores; those are
/// layered on by InstructionMixer).
class BlockPattern {
 public:
  virtual ~BlockPattern() = default;
  virtual block_t next_block() = 0;

  /// Advance the stream past `n` blocks without materialising them. The
  /// sampling executor uses this to fast-forward between detailed windows.
  /// Deterministic patterns override with closed-form jumps; stochastic
  /// patterns whose draws are iid may leave the stream untouched (skipping
  /// iid draws is statistically a no-op). The default pulls and discards,
  /// which is always correct but linear-time.
  virtual void skip(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) next_block();
  }
};

/// Abstract pull-based stream of memory references.
class AccessGenerator {
 public:
  virtual ~AccessGenerator() = default;
  virtual MemRef next() = 0;

  /// Advance the stream past ~`n_instr` retired instructions (each MemRef
  /// covers gap+1 of them) without materialising references. Default pulls
  /// and discards; InstructionMixer overrides with an expected-count jump.
  virtual void skip(std::uint64_t n_instr) {
    std::uint64_t done = 0;
    while (done < n_instr) {
      const MemRef r = next();
      done += static_cast<std::uint64_t>(r.gap) + 1;
    }
  }
};

}  // namespace esteem::trace
