#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "hwmodel/node_spec.hpp"

/// \file cat.hpp
/// Model of Intel Cache Allocation Technology as the paper uses it (pqos):
/// classes of service (CLOS) own capacity bitmasks (CBM) over LLC ways, and
/// workloads (chains) are associated with a CLOS. Masks must be contiguous
/// (hardware requirement) and non-empty. Way 0..ddio_ways-1 are reserved for
/// DDIO and cannot be assigned to a CLOS.

namespace greennfv::hwmodel {

using ClosId = int;

/// Capacity bitmasks are 64-bit, so a node has at most this many LLC ways.
inline constexpr int kMaxLlcWays = 64;

/// Largest-remainder apportionment of `ways` among classes weighted by
/// `fractions` (normalized, so they need not sum to 1), at least one way
/// each: the split CatAllocator::partition assigns, without its CLOS
/// bookkeeping or a heap allocation. Writes `out[i]` for every class.
/// Throws std::invalid_argument on the inputs partition rejects.
void apportion_ways(std::span<const double> fractions, int ways,
                    std::span<int> out);

class CatAllocator {
 public:
  explicit CatAllocator(const NodeSpec& spec);

  /// Defines (or redefines) a CLOS with a contiguous way mask.
  /// `first_way`/`way_count` index into the allocatable (non-DDIO) ways.
  /// Throws std::invalid_argument on a malformed mask.
  void set_clos(ClosId clos, int first_way, int way_count);

  /// Convenience: partitions the allocatable ways among `fractions` CLOSes
  /// proportionally (fractions need not sum to 1; they are normalized).
  /// Every CLOS receives at least one way. Returns the assigned way counts.
  std::vector<int> partition(const std::vector<double>& fractions);

  /// Removes all CLOS definitions (back to unpartitioned LLC).
  void reset();

  [[nodiscard]] bool has_clos(ClosId clos) const;
  [[nodiscard]] int way_count(ClosId clos) const;
  [[nodiscard]] std::uint64_t bytes(ClosId clos) const;

  /// True when no CLOS is defined: all workloads contend for the full LLC.
  [[nodiscard]] bool unpartitioned() const { return clos_.empty(); }

  [[nodiscard]] int allocatable_ways() const { return allocatable_ways_; }
  [[nodiscard]] std::uint64_t bytes_per_way() const { return bytes_per_way_; }

  /// The capacity bitmask of a CLOS as the pqos tool would print it
  /// (bit i set = way i owned), including the DDIO offset.
  [[nodiscard]] std::uint64_t cbm(ClosId clos) const;

 private:
  struct Mask {
    int first_way = 0;
    int way_count = 0;
  };

  int allocatable_ways_;
  int ddio_ways_;
  std::uint64_t bytes_per_way_;
  std::map<ClosId, Mask> clos_;
};

}  // namespace greennfv::hwmodel
