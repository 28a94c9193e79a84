// Canonical byte codec for shipping a SweepSpec through the service
// journal, so N worker processes reconstruct the coordinator's sweep
// bit-exactly (INI round-trips truncate floats; this codec is f64-exact).
//
// Only result-determining fields plus the execution-policy sections
// ([resilience], [service], [observability]) are encoded; the journal/resume
// pointers and the thread count are deliberately excluded — they never
// change a row's bytes.
//
// Skew guard: the service header stores both these bytes and the sweep's
// fingerprint hash. A worker recomputes the hash from the *decoded* spec and
// refuses to start when they disagree, so a codec that silently drops a
// field (e.g. after SystemConfig grows) fails loudly instead of computing
// subtly different rows.
#pragma once

#include <cstdint>
#include <string>

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

}  // namespace esteem::service
