// Canonical byte codecs of the service journal: the SweepSpec in the `svc`
// header, so N worker processes reconstruct the coordinator's sweep
// bit-exactly (INI round-trips truncate floats; this codec is f64-exact),
// the sweep identity hash stored beside it, and the comparison bytes of
// each `cell` record.
//
// Only result-determining fields plus the execution-policy sections
// ([resilience], [service], [observability]) are encoded; the thread count
// is deliberately excluded — it never changes a row's bytes.
//
// Skew guard: the service header stores both these bytes and the sweep's
// fingerprint hash. A worker recomputes the hash from the *decoded* spec and
// refuses to start when they disagree, so a codec that silently drops a
// field (e.g. after SystemConfig grows) fails loudly instead of computing
// subtly different rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace esteem::service {

/// Bump when the encoding changes; a mismatched journal is refused.
/// v2: [observability] joined the execution-policy sections.
/// v3: [sampling] joined the config.
/// v4: resilience.max_consecutive_errors and service.lock_mode.
/// v5: service.crash_after_rows left the config.
inline constexpr std::uint32_t kWireVersion = 5;

std::string encode_sweep_spec(const sim::SweepSpec& spec);

/// Inverse of encode_sweep_spec into a default-constructed spec; false on
/// truncation, trailing bytes, or a version mismatch.
bool decode_sweep_spec(const std::string& bytes, sim::SweepSpec& out);

/// Stable identity of a sweep, stored in the service header: a hash over
/// everything that determines a cell's bytes (config, techniques, seed,
/// budgets) except the workload list.
std::uint64_t sweep_fingerprint_hash(const sim::SweepSpec& spec);

/// Canonical byte encoding of a comparison vector — the `data` of a service
/// `cell` record.
std::string encode_comparisons(const std::vector<sim::TechniqueComparison>& comparisons);
bool decode_comparisons(const std::string& bytes, std::size_t n_techniques,
                        std::vector<sim::TechniqueComparison>& out);

}  // namespace esteem::service
