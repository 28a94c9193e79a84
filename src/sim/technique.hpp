// Convenience re-export + string parsing for the technique enum.
#pragma once

#include <string_view>
#include <vector>

#include "cpu/technique.hpp"

namespace esteem::sim {

using cpu::Technique;
using cpu::to_string;

/// All techniques, baseline first.
std::vector<Technique> all_techniques();

/// Parses a technique's cpu::to_string name: "baseline" / "periodic-valid" /
/// "rpv" / "rpd" / "smart-refresh" / "ecc-extended" / "cache-decay" /
/// "esteem". Throws std::invalid_argument on unknown names.
Technique parse_technique(std::string_view name);

}  // namespace esteem::sim
