#include "trace/patterns.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace esteem::trace {

std::uint64_t BlockRng::below_retry(__uint128_t m, std::uint64_t bound) noexcept {
  const std::uint64_t threshold = -bound % bound;
  while (static_cast<std::uint64_t>(m) < threshold) {
    m = static_cast<__uint128_t>((*this)()) * bound;
  }
  return static_cast<std::uint64_t>(m >> 64);
}

void BlockRng::refill() noexcept {
  // The tail is at most a peek window and lies after its new place, so a
  // forward word copy is safe; the generator runs on a local copy so its
  // state stays in registers across the loop.
  const std::size_t from = pos_;
  const std::size_t kept = kBlock - from;
  for (std::size_t i = 0; i < kept; ++i) buf_[i] = buf_[from + i];
  Rng rng = rng_;
  for (std::size_t i = kept; i < kBlock; ++i) buf_[i] = rng();
  rng_ = rng;
  pos_ = 0;
}

namespace {

// Floor on the gap draw: keeps log(u) finite.
constexpr double kMinUniform = 1e-12;

// The cuts of an ascending cumulative weight list, its last cut forced to
// kDrawSpan so every draw picks an index below cumulative.size().
std::vector<std::uint64_t> cumulative_cuts(const std::vector<double>& cumulative) {
  std::vector<std::uint64_t> cuts;
  cuts.reserve(cumulative.size());
  for (double c : cumulative) cuts.push_back(draw_cut(c));
  cuts.back() = kDrawSpan;
  return cuts;
}

}  // namespace

StreamingPattern::StreamingPattern(block_t base, std::uint64_t region_blocks,
                                   std::uint64_t stride)
    : base_(base), region_(std::max<std::uint64_t>(1, region_blocks)), stride_(stride) {
  if (stride_ == 0) throw std::invalid_argument("StreamingPattern: stride must be nonzero");
}

block_t StreamingPattern::next_block() {
  const block_t b = base_ + pos_;
  pos_ += stride_;
  if (pos_ >= region_) pos_ = 0;
  return b;
}

void StreamingPattern::skip(std::uint64_t n) {
  // pos_ only ever holds multiples of stride_ below region_, so the walk is
  // a cycle of length ceil(region/stride) over grid indices.
  const std::uint64_t cycle = (region_ + stride_ - 1) / stride_;
  const std::uint64_t idx = (pos_ / stride_ + n) % cycle;
  pos_ = idx * stride_;
}

NestedWorkingSetPattern::NestedWorkingSetPattern(block_t base, std::uint64_t ws_blocks,
                                                 std::uint32_t levels, double size_ratio,
                                                 double weight_ratio, std::uint64_t seed)
    : base_(base), rng_(seed) {
  if (levels == 0) throw std::invalid_argument("NestedWorkingSet: levels must be >= 1");
  if (size_ratio <= 0.0 || size_ratio >= 1.0) {
    throw std::invalid_argument("NestedWorkingSet: size_ratio must be in (0,1)");
  }
  if (weight_ratio <= 0.0) {
    throw std::invalid_argument("NestedWorkingSet: weight_ratio must be positive");
  }
  double size = static_cast<double>(std::max<std::uint64_t>(1, ws_blocks));
  double weight = 1.0;
  double acc = 0.0;
  std::vector<double> cumulative;
  for (std::uint32_t i = 0; i < levels; ++i) {
    level_size_.push_back(std::max<std::uint64_t>(1, static_cast<std::uint64_t>(size)));
    acc += weight;
    cumulative.push_back(acc);
    size *= size_ratio;
    weight *= weight_ratio;
  }
  for (double& c : cumulative) c /= acc;
  level_cut_ = cumulative_cuts(cumulative);
}

block_t NestedWorkingSetPattern::next_block() {
  const std::size_t lvl = pick_cut(level_cut_, draw53(rng_()));
  return base_ + rng_.below(level_size_[lvl]);
}

namespace {
std::uint64_t ceil_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

PointerChasePattern::PointerChasePattern(block_t base, std::uint64_t ws_blocks,
                                         std::uint64_t seed)
    : base_(base), ws_pow2_(ceil_pow2(std::max<std::uint64_t>(2, ws_blocks))) {
  // Hull-Dobell for modulus 2^k: increment odd, multiplier = 1 (mod 4).
  std::uint64_t sm = seed;
  mult_ = (splitmix64(sm) & ~std::uint64_t{3}) | 1;  // = 1 (mod 4)
  inc_ = splitmix64(sm) | 1;                         // odd
  cur_ = splitmix64(sm) & (ws_pow2_ - 1);
}

block_t PointerChasePattern::next_block() {
  cur_ = (mult_ * cur_ + inc_) & (ws_pow2_ - 1);
  return base_ + cur_;
}

void PointerChasePattern::skip(std::uint64_t n) {
  // Compose x -> mult*x + inc with itself n times by repeated squaring; all
  // arithmetic mod 2^64 (a multiple of ws_pow2_, so the mask commutes).
  std::uint64_t a = mult_, c = inc_;
  std::uint64_t acc_a = 1, acc_c = 0;
  while (n != 0) {
    if (n & 1) {
      acc_a *= a;
      acc_c = acc_c * a + c;
    }
    c *= a + 1;
    a *= a;
    n >>= 1;
  }
  cur_ = (acc_a * cur_ + acc_c) & (ws_pow2_ - 1);
}

MultiScanPattern::MultiScanPattern(block_t base, std::vector<std::uint32_t> depths,
                                   const GeneratorContext& ctx,
                                   std::uint64_t sweeps_per_depth,
                                   std::uint32_t sets_span)
    : base_(base),
      depths_(std::move(depths)),
      total_sets_(ctx.l2_sets),
      span_(sets_span == 0 ? ctx.l2_sets : std::min(sets_span, ctx.l2_sets)),
      sweeps_per_depth_(std::max<std::uint64_t>(1, sweeps_per_depth)) {
  if (depths_.empty()) throw std::invalid_argument("MultiScanPattern: need >= 1 depth");
  for (auto d : depths_) {
    if (d == 0) throw std::invalid_argument("MultiScanPattern: depth must be >= 1");
  }
}

block_t MultiScanPattern::next_block() {
  // Walk row-major over a footprint of `depth` lines per set across the
  // first `span_` sets: block layout keeps the set index = pos % span_ while
  // distinct rows land in distinct cache lines of the same set.
  const std::uint64_t region = static_cast<std::uint64_t>(depths_[depth_idx_]) * span_;
  const block_t b =
      base_ + (pos_ / span_) * total_sets_ + (pos_ % span_);
  if (++pos_ >= region) {
    pos_ = 0;
    if (++sweep_ >= sweeps_per_depth_) {
      sweep_ = 0;
      depth_idx_ = (depth_idx_ + 1) % depths_.size();
    }
  }
  return b;
}

void MultiScanPattern::skip(std::uint64_t n) {
  std::uint64_t full = 0;
  for (std::uint32_t d : depths_) {
    full += static_cast<std::uint64_t>(d) * span_ * sweeps_per_depth_;
  }
  n %= full;
  while (n > 0) {
    const std::uint64_t region = static_cast<std::uint64_t>(depths_[depth_idx_]) * span_;
    const std::uint64_t left = region * (sweeps_per_depth_ - sweep_) - pos_;
    if (n < left) {
      const std::uint64_t adv = pos_ + n;
      sweep_ += adv / region;
      pos_ = adv % region;
      return;
    }
    n -= left;
    pos_ = 0;
    sweep_ = 0;
    depth_idx_ = (depth_idx_ + 1) % depths_.size();
  }
}

MixturePattern::MixturePattern(std::vector<std::unique_ptr<BlockPattern>> children,
                               std::vector<double> weights, std::uint64_t seed)
    : children_(std::move(children)), rng_(seed) {
  if (children_.empty() || children_.size() != weights.size()) {
    throw std::invalid_argument("MixturePattern: children/weights size mismatch");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("MixturePattern: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("MixturePattern: zero total weight");
  double acc = 0.0;
  std::vector<double> cumulative;
  for (double w : weights) {
    acc += w / total;
    cumulative.push_back(acc);
  }
  cumulative.back() = 1.0;  // guard against FP drift
  double prev = 0.0;
  for (double c : cumulative) {
    weight_.push_back(c - prev);
    prev = c;
  }
  child_cut_ = cumulative_cuts(cumulative);
  skip_carry_.assign(children_.size(), 0.0);
}

block_t MixturePattern::next_block() {
  return children_[pick_cut(child_cut_, draw53(rng_()))]->next_block();
}

void MixturePattern::skip(std::uint64_t n) {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    const double due = static_cast<double>(n) * weight_[i] + skip_carry_[i];
    const auto whole = static_cast<std::uint64_t>(due);
    skip_carry_[i] = due - static_cast<double>(whole);
    if (whole > 0) children_[i]->skip(whole);
  }
}

PhasedPattern::PhasedPattern(std::vector<std::unique_ptr<BlockPattern>> children,
                             std::uint64_t refs_per_phase)
    : children_(std::move(children)),
      refs_per_phase_(std::max<std::uint64_t>(1, refs_per_phase)) {
  if (children_.empty()) throw std::invalid_argument("PhasedPattern: need >= 1 child");
}

block_t PhasedPattern::next_block() {
  const block_t b = children_[active_]->next_block();
  if (++pos_ >= refs_per_phase_) {
    pos_ = 0;
    active_ = (active_ + 1) % children_.size();
  }
  return b;
}

void PhasedPattern::skip(std::uint64_t n) {
  if (n == 0) return;
  std::vector<std::uint64_t> take(children_.size(), 0);
  std::size_t idx = active_;
  // Finish the current phase first.
  const std::uint64_t head = std::min(n, refs_per_phase_ - pos_);
  take[idx] += head;
  n -= head;
  pos_ += head;
  if (pos_ >= refs_per_phase_) {
    pos_ = 0;
    idx = (idx + 1) % children_.size();
  }
  // n > 0 here implies the head completed its phase, so pos_ == 0.
  const std::uint64_t phases = n / refs_per_phase_;
  const std::uint64_t per_child = phases / children_.size();
  if (per_child > 0) {
    for (std::uint64_t& t : take) t += per_child * refs_per_phase_;
  }
  for (std::uint64_t p = 0; p < phases % children_.size(); ++p) {
    take[(idx + p) % children_.size()] += refs_per_phase_;
  }
  idx = (idx + phases) % children_.size();
  n -= phases * refs_per_phase_;
  take[idx] += n;
  pos_ += n;
  active_ = idx;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (take[i] > 0) children_[i]->skip(take[i]);
  }
}

TemporalReusePattern::TemporalReusePattern(std::unique_ptr<BlockPattern> child,
                                           double reuse_prob, std::uint32_t window,
                                           std::uint64_t seed)
    : child_(std::move(child)),
      reuse_prob_(reuse_prob),
      reuse_cut_(draw_cut(reuse_prob)),
      ring_(window),
      rng_(seed) {
  if (!child_) throw std::invalid_argument("TemporalReuse: null child");
  if (window == 0) throw std::invalid_argument("TemporalReuse: window must be >= 1");
  if (reuse_prob_ < 0.0 || reuse_prob_ >= 1.0) {
    throw std::invalid_argument("TemporalReuse: reuse_prob must be in [0,1)");
  }
}

block_t TemporalReusePattern::next_block() {
  const auto size = static_cast<std::uint32_t>(ring_.size());
  if (filled_ > 0 && draw53(rng_()) < reuse_cut_) {
    // Geometric recency bias: each successful coin flip (a draw with bit 63
    // clear, a fair coin) halves the candidate range, rounding up,
    // until a flip fails or the range is one line. k halvings leave
    // ceil(filled / 2^k) lines, and `halvings` flips reach 1, so the first
    // failing flip among the next `halvings` draws fixes the span. Flips
    // are consumed up to and including the failing one, exactly as a loop
    // drawing one flip per halving would.
    const auto halvings = static_cast<unsigned>(std::bit_width(filled_ - 1));
    const std::uint64_t* flips = rng_.peek(halvings);
    std::uint64_t fails = std::uint64_t{1} << halvings;
    for (unsigned i = 0; i < halvings; ++i) fails |= (flips[i] >> 63) << i;
    const auto k = static_cast<unsigned>(std::countr_zero(fails));
    rng_.consume(std::min(k + 1, halvings));
    const std::uint32_t span = ((filled_ - 1) >> k) + 1;
    const auto back = static_cast<std::uint32_t>(rng_.below(span));
    std::uint32_t idx = head_ + size - 1 - back;
    if (idx >= size) idx -= size;
    return ring_[idx];
  }
  const block_t b = child_->next_block();
  ring_[head_] = b;
  if (++head_ == size) head_ = 0;
  filled_ = std::min(filled_ + 1, size);
  return b;
}

void TemporalReusePattern::skip(std::uint64_t n) {
  const double due = static_cast<double>(n) * (1.0 - reuse_prob_) + skip_carry_;
  const auto fresh = static_cast<std::uint64_t>(due);
  skip_carry_ = due - static_cast<double>(fresh);
  // Skip the bulk, then pull the tail through the ring so the recency window
  // holds the blocks a continuous run would have ended on.
  const auto size = static_cast<std::uint32_t>(ring_.size());
  const std::uint64_t warm = std::min<std::uint64_t>(fresh, size);
  child_->skip(fresh - warm);
  for (std::uint64_t i = 0; i < warm; ++i) {
    ring_[head_] = child_->next_block();
    if (++head_ == size) head_ = 0;
    filled_ = std::min(filled_ + 1, size);
  }
}

InstructionMixer::InstructionMixer(std::unique_ptr<BlockPattern> pattern, double mem_ratio,
                                   double store_ratio, std::uint64_t seed)
    : pattern_(std::move(pattern)),
      mem_ratio_(mem_ratio),
      store_cut_(draw_cut(store_ratio)),
      log_q_(std::log(1.0 - mem_ratio)),
      rng_(seed) {
  if (!pattern_) throw std::invalid_argument("InstructionMixer: null pattern");
  if (mem_ratio_ <= 0.0 || mem_ratio_ > 1.0) {
    throw std::invalid_argument("InstructionMixer: mem_ratio must be in (0,1]");
  }
  if (store_ratio < 0.0 || store_ratio > 1.0) {
    throw std::invalid_argument("InstructionMixer: store_ratio must be in [0,1]");
  }
  // log_gap is a non-increasing step function of u, so each threshold is
  // the lowest double at which the step below g starts. (1 - p)^g lands
  // within a few ulps of it; walk from there with the log expression
  // itself as the judge. DESIGN.md §16 shows why the table then agrees
  // with the log expression on every draw.
  for (std::size_t i = 0; i < kGapSteps; ++i) {
    const auto g = static_cast<std::uint32_t>(i + 1);
    double t = std::max(std::exp(g * log_q_), kMinUniform);
    if (log_gap(t) < g) {
      while (t > kMinUniform && log_gap(std::nextafter(t, 0.0)) < g) {
        t = std::nextafter(t, 0.0);
      }
    } else {
      while (log_gap(t) >= g) t = std::nextafter(t, 1.0);
    }
    gap_below_[i] = t;
    gap_cut_[i] = t > kMinUniform ? draw_cut(t) : 0;
  }
}

std::uint32_t InstructionMixer::log_gap(double u) const noexcept {
  // Geometric gap with mean 1/mem_ratio - 1 (inversion method). Capped so a
  // single op can never skip more than a few intervals' worth of work. q is
  // never negative, so truncation is the floor the inversion asks for.
  const double q = std::log(u) / log_q_;
  return q >= 1e6 ? 1'000'000u : static_cast<std::uint32_t>(q);
}

std::uint32_t InstructionMixer::gap_for(std::uint64_t k) const noexcept {
  std::uint32_t gap = 0;
  for (std::uint64_t c : gap_cut_) gap += k < c ? 1 : 0;
  if (gap < kGapSteps) return gap;
  return log_gap(std::max(static_cast<double>(k) * 0x1.0p-53, kMinUniform));
}

MemRef InstructionMixer::next() {
  MemRef ref;
  ref.block = pattern_->next_block();
  ref.is_store = draw53(rng_()) < store_cut_;
  if (mem_ratio_ < 1.0) ref.gap = gap_for(draw53(rng_()));
  return ref;
}

void InstructionMixer::skip(std::uint64_t n_instr) {
  const double due = static_cast<double>(n_instr) * mem_ratio_ + skip_carry_;
  const auto refs = static_cast<std::uint64_t>(due);
  skip_carry_ = due - static_cast<double>(refs);
  if (refs > 0) pattern_->skip(refs);
}

}  // namespace esteem::trace
