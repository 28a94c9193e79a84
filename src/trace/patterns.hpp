// Synthetic address patterns. Each pattern shapes the L2-set-level reuse
// distance distribution differently, which is what ESTEEM's LRU-position
// profiling observes (paper §3.1).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "trace/access.hpp"

namespace esteem::trace {

/// Every generator decision compares a draw's top 53 bits, k = word >> 11,
/// with an integer cut fixed at construction. Rng::uniform() is exactly
/// k * 2^-53, so uniform() < p holds exactly when k < draw_cut(p), and
/// c <= uniform() exactly when k >= draw_cut(c) (DESIGN.md §16).
constexpr std::uint64_t draw53(std::uint64_t word) noexcept { return word >> 11; }

/// One past the largest 53-bit draw: the cut of p = 1.
constexpr std::uint64_t kDrawSpan = std::uint64_t{1} << 53;

/// ceil(p * 2^53) for p in [0, 1]; 0 below that range, kDrawSpan above it.
/// The scale by 2^53 is exact, so only the rounding up is left to do.
constexpr std::uint64_t draw_cut(double p) noexcept {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return kDrawSpan;
  const double scaled = p * 0x1.0p53;
  const auto floor = static_cast<std::uint64_t>(scaled);
  return floor + (static_cast<double>(floor) < scaled ? 1 : 0);
}

/// The pick for draw k over the cuts of an ascending cumulative weight list
/// whose last entry is 1: the index of the first weight above k * 2^-53,
/// counted without a data-dependent branch.
inline std::size_t pick_cut(const std::vector<std::uint64_t>& cuts, std::uint64_t k) noexcept {
  std::size_t idx = 0;
  for (std::uint64_t c : cuts) idx += (c <= k);
  return idx;
}

/// Rng's exact sequence, drawn `kBlock` words at a time into a buffer. The
/// refill loop keeps xoshiro's state in registers, and `peek`/`consume` let
/// a caller resolve several upcoming draws at once without branching on
/// each. Every pattern owns its generator and no `skip()` draws from it, so
/// buffering never reorders a draw (DESIGN.md §16).
class BlockRng {
 public:
  static constexpr std::size_t kBlock = 64;

  explicit BlockRng(std::uint64_t seed) noexcept : rng_(seed) {}

  std::uint64_t operator()() noexcept {
    if (pos_ == kBlock) refill();
    return buf_[pos_++];
  }

  /// The next `n` draws without consuming them. Precondition: n <= kBlock.
  const std::uint64_t* peek(std::size_t n) noexcept {
    if (kBlock - pos_ < n) refill();
    return buf_.data() + pos_;
  }

  /// Consumes `n` draws. Precondition: a preceding peek(m) with m >= n.
  void consume(std::size_t n) noexcept { pos_ += n; }

  /// Same mapping as Rng::below. The first draw is accepted unless its low
  /// product word falls below `bound`, which is rare for small bounds.
  std::uint64_t below(std::uint64_t bound) noexcept {
    const __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) [[unlikely]] return below_retry(m, bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  /// Lemire's rejection loop, entered with the first draw's product.
  std::uint64_t below_retry(__uint128_t m, std::uint64_t bound) noexcept;
  void refill() noexcept;  ///< Keeps the unconsumed tail, draws the rest.

  Rng rng_;
  std::array<std::uint64_t, kBlock> buf_{};
  std::size_t pos_ = kBlock;
};

/// Sequential sweep over a region of `region_blocks` blocks starting at
/// `base`. Models streaming benchmarks (lbm, libquantum, milc, ...): per-set
/// reuse distance equals region_blocks / sets, so regions much larger than
/// the cache produce ~100% misses.
class StreamingPattern final : public BlockPattern {
 public:
  StreamingPattern(block_t base, std::uint64_t region_blocks, std::uint64_t stride = 1);
  block_t next_block() override;
  void skip(std::uint64_t n) override;  ///< Exact: closed-form cycle jump.

 private:
  block_t base_;
  std::uint64_t region_;
  std::uint64_t stride_;
  std::uint64_t pos_ = 0;
};

/// Uniform random accesses over nested working-set levels: level i spans the
/// innermost `ws * size_ratio^i` blocks and is chosen with probability
/// proportional to `weight_ratio^i`. This produces the smooth, monotonically
/// decaying LRU stack-distance curve real applications exhibit (hot data
/// reused often, colder rings progressively less), which is what makes
/// alpha-coverage way selection stable (paper §3.1).
class NestedWorkingSetPattern final : public BlockPattern {
 public:
  NestedWorkingSetPattern(block_t base, std::uint64_t ws_blocks, std::uint32_t levels,
                          double size_ratio, double weight_ratio, std::uint64_t seed);
  block_t next_block() override;
  /// Draws are iid, so skipping them is a statistical no-op; leaving the RNG
  /// untouched keeps sampled runs deterministic for a given seed.
  void skip(std::uint64_t) override {}

 private:
  block_t base_;
  std::vector<std::uint64_t> level_size_;
  std::vector<std::uint64_t> level_cut_;  ///< draw_cut of each cumulative weight.
  BlockRng rng_;
};

/// Dependent-chain walk through a pseudo-random permutation of a power-of-two
/// working set (full-cycle LCG, Hull-Dobell). Models pointer-chasing codes
/// (mcf): every access has reuse distance == ws, defeating the LRU stack.
class PointerChasePattern final : public BlockPattern {
 public:
  PointerChasePattern(block_t base, std::uint64_t ws_blocks, std::uint64_t seed);
  block_t next_block() override;
  void skip(std::uint64_t n) override;  ///< Exact: LCG jump-ahead in O(log n).

 private:
  block_t base_;
  std::uint64_t ws_pow2_;
  std::uint64_t mult_;
  std::uint64_t inc_;
  std::uint64_t cur_;
};

/// Cyclic sweeps whose footprint is `depth` lines per L2 set: after warm-up,
/// every access hits at LRU stack position depth-1. Interleaving several
/// depths yields a multi-modal (non-monotonic) histogram — the "non-LRU"
/// behaviour the paper attributes to omnetpp/xalancbmk (§3.1).
class MultiScanPattern final : public BlockPattern {
 public:
  /// `sets_span` limits the scan footprint to the first `sets_span` cache
  /// sets (0 = all sets). A narrower span makes each sweep short enough
  /// that several depths alternate within one profiling interval.
  MultiScanPattern(block_t base, std::vector<std::uint32_t> depths,
                   const GeneratorContext& ctx, std::uint64_t sweeps_per_depth = 2,
                   std::uint32_t sets_span = 0);
  block_t next_block() override;
  void skip(std::uint64_t n) override;  ///< Exact: modular walk over depth sweeps.

 private:
  block_t base_;
  std::vector<std::uint32_t> depths_;
  std::uint32_t total_sets_;
  std::uint32_t span_;
  std::uint64_t sweeps_per_depth_;
  std::size_t depth_idx_ = 0;
  std::uint64_t pos_ = 0;
  std::uint64_t sweep_ = 0;
};

/// Weighted per-access mixture of child patterns.
class MixturePattern final : public BlockPattern {
 public:
  MixturePattern(std::vector<std::unique_ptr<BlockPattern>> children,
                 std::vector<double> weights, std::uint64_t seed);
  block_t next_block() override;
  /// Statistical: routes `n * weight_i` skips (with a fractional carry) to
  /// each child without drawing from the RNG, so the selector stream is
  /// unperturbed and the expected per-child consumption matches.
  void skip(std::uint64_t n) override;

 private:
  std::vector<std::unique_ptr<BlockPattern>> children_;
  std::vector<std::uint64_t> child_cut_;  ///< draw_cut of each cumulative weight.
  std::vector<double> weight_;            ///< Normalised, for skip().
  std::vector<double> skip_carry_;
  BlockRng rng_;
};

/// Round-robin phase switcher: runs each child for `refs_per_phase` memory
/// references before moving to the next. Models phased benchmarks (h264ref,
/// gcc) whose working set changes over time, exercising ESTEEM's dynamic
/// reconfiguration (Figure 2).
class PhasedPattern final : public BlockPattern {
 public:
  PhasedPattern(std::vector<std::unique_ptr<BlockPattern>> children,
                std::uint64_t refs_per_phase);
  block_t next_block() override;
  void skip(std::uint64_t n) override;  ///< Exact: per-phase routing arithmetic.

 private:
  std::vector<std::unique_ptr<BlockPattern>> children_;
  std::uint64_t refs_per_phase_;
  std::uint64_t pos_ = 0;
  std::size_t active_ = 0;
};

/// Short-term temporal locality wrapper: with probability `reuse_prob` the
/// next access re-references one of the last `window` distinct blocks
/// (geometrically biased toward the most recent); otherwise it pulls a new
/// block from the child pattern. Real programs re-touch the same lines many
/// times within a few hundred instructions — this is what gives the L1 its
/// ~90% hit rate and leaves the L2 only the medium-distance reuse stream.
class TemporalReusePattern final : public BlockPattern {
 public:
  TemporalReusePattern(std::unique_ptr<BlockPattern> child, double reuse_prob,
                       std::uint32_t window, std::uint64_t seed);
  block_t next_block() override;
  /// Statistical: the child advances by the expected fresh-pull count
  /// `n * (1 - reuse_prob)` (fractional carry), and the recency ring is
  /// re-warmed with the tail of those pulls so post-skip reuses reference
  /// genuinely recent blocks. The RNG is untouched.
  void skip(std::uint64_t n) override;

 private:
  std::unique_ptr<BlockPattern> child_;
  double reuse_prob_;
  std::uint64_t reuse_cut_;  ///< draw_cut(reuse_prob_).
  std::vector<block_t> ring_;
  std::uint32_t head_ = 0;
  std::uint32_t filled_ = 0;
  double skip_carry_ = 0.0;
  BlockRng rng_;
};

/// Layers instruction gaps (geometric, mean = 1/mem_ratio - 1) and store
/// flags (Bernoulli store_ratio) onto a block pattern.
class InstructionMixer final : public AccessGenerator {
 public:
  /// Gaps below this are read from a threshold table; longer ones take the
  /// log (DESIGN.md §16).
  static constexpr std::size_t kGapSteps = 8;

  InstructionMixer(std::unique_ptr<BlockPattern> pattern, double mem_ratio,
                   double store_ratio, std::uint64_t seed);
  MemRef next() override;
  /// Statistical: forwards the expected memory-op count `n_instr * mem_ratio`
  /// (fractional carry) to the block pattern; gap/store draws are iid so the
  /// RNG is untouched.
  void skip(std::uint64_t n_instr) override;

  /// The gap next() assigns to the 53-bit draw `k` when mem_ratio < 1: the
  /// inversion floor(log(max(u, 1e-12)) / log(1 - mem_ratio)) of
  /// u = k * 2^-53, capped at 1e6.
  std::uint32_t gap_for(std::uint64_t k) const noexcept;

  /// gap_thresholds()[g - 1] is the smallest clamped draw whose gap is
  /// below g, so gap_for(k) >= g exactly when max(u, 1e-12) is below it.
  const std::array<double, kGapSteps>& gap_thresholds() const noexcept {
    return gap_below_;
  }

  /// gap_cuts()[g - 1] is the same threshold on the draw: gap_for(k) >= g
  /// exactly when k < gap_cuts()[g - 1]. A threshold at the clamp has cut 0,
  /// because no clamped draw is below 1e-12.
  const std::array<std::uint64_t, kGapSteps>& gap_cuts() const noexcept { return gap_cut_; }

 private:
  /// The inversion itself, on an already clamped draw.
  std::uint32_t log_gap(double u) const noexcept;

  std::unique_ptr<BlockPattern> pattern_;
  double mem_ratio_;
  std::uint64_t store_cut_;  ///< draw_cut(store_ratio).
  double log_q_;  ///< log(1 - mem_ratio), the geometric gap's denominator.
  std::array<double, kGapSteps> gap_below_{};
  std::array<std::uint64_t, kGapSteps> gap_cut_{};
  double skip_carry_ = 0.0;
  Rng rng_;
};

}  // namespace esteem::trace
