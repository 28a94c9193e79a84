// Fundamental scalar types shared by every subsystem.
#pragma once

#include <cstdint>

namespace esteem {

/// Byte address in the simulated physical address space.
using addr_t = std::uint64_t;

/// Cache-block (line) number: `addr >> log2(line_bytes)`.
using block_t = std::uint64_t;

/// Simulated processor cycle count.
using cycle_t = std::uint64_t;

/// Retired-instruction count.
using instr_t = std::uint64_t;

/// Sentinel for "no block".
inline constexpr block_t kInvalidBlock = ~block_t{0};

/// Largest supported cache associativity: SetAssocCache keeps 16-bit
/// per-set LRU clocks and renumbers a set's stamps in a buffer of this many
/// ways. SystemConfig::validate() rejects larger L1/L2 geometries.
inline constexpr std::uint32_t kMaxWays = 256;

/// Returns true iff `v` is a power of two (and nonzero).
constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// Floor of log2; precondition: v != 0.
constexpr unsigned log2_floor(std::uint64_t v) noexcept {
  unsigned r = 0;
  while (v >>= 1) ++r;
  return r;
}

}  // namespace esteem
