#pragma once

#include <span>

/// \file cat.hpp
/// Intel Cache Allocation Technology as the paper uses it (pqos): each
/// chain's class of service owns a share of the LLC ways outside the DDIO
/// ways, at least one way each. The node model only needs how many ways
/// each class gets, not the capacity bitmasks that would place them.

namespace greennfv::hwmodel {

/// Capacity bitmasks are 64-bit, so a node has at most this many LLC ways.
inline constexpr int kMaxLlcWays = 64;

/// Largest-remainder apportionment of `ways` among classes weighted by
/// `fractions` (normalized, so they need not sum to 1), at least one way
/// each, without a heap allocation. Writes `out[i]` for every class.
/// Throws std::invalid_argument on no classes, a negative fraction,
/// fractions summing to zero, or more classes than ways.
void apportion_ways(std::span<const double> fractions, int ways,
                    std::span<int> out);

}  // namespace greennfv::hwmodel
