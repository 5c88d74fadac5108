#include "hwmodel/cat.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

#include "common/assert.hpp"

namespace greennfv::hwmodel {

CatAllocator::CatAllocator(const NodeSpec& spec)
    : allocatable_ways_(spec.llc_ways - spec.ddio_ways),
      ddio_ways_(spec.ddio_ways),
      bytes_per_way_(spec.bytes_per_way()) {
  GNFV_REQUIRE(allocatable_ways_ > 0, "CAT: no allocatable ways");
}

void CatAllocator::set_clos(ClosId clos, int first_way, int way_count) {
  if (way_count <= 0)
    throw std::invalid_argument("CAT: CBM must contain at least one way");
  if (first_way < 0 || first_way + way_count > allocatable_ways_)
    throw std::invalid_argument("CAT: CBM exceeds allocatable ways");
  clos_[clos] = Mask{first_way, way_count};
}

void apportion_ways(std::span<const double> fractions, int ways,
                    std::span<int> out) {
  GNFV_REQUIRE(ways > 0 && ways <= kMaxLlcWays,
               "CAT: way count outside a 64-bit CBM");
  if (fractions.empty())
    throw std::invalid_argument("CAT: partition needs at least one fraction");
  for (const double f : fractions)
    if (f < 0.0)
      throw std::invalid_argument("CAT: fractions must be non-negative");
  const double total = std::accumulate(fractions.begin(), fractions.end(), 0.0);
  if (total <= 0.0)
    throw std::invalid_argument("CAT: fractions sum to zero");

  const auto n = static_cast<int>(fractions.size());
  if (n > ways) throw std::invalid_argument("CAT: more classes than ways");
  GNFV_REQUIRE(out.size() >= fractions.size(), "CAT: short way buffer");

  // Largest-remainder apportionment with a 1-way floor per class.
  std::array<double, kMaxLlcWays> remainders;
  int remaining = ways - n;
  for (int i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(i);
    const double ideal = fractions[c] / total * ways;
    const int extra =
        std::max(0, std::min(remaining, static_cast<int>(ideal) - 1));
    out[c] = 1 + extra;
    remaining -= extra;
    remainders[c] = ideal - static_cast<double>(out[c]);
  }
  while (remaining > 0) {
    const auto it =
        std::max_element(remainders.begin(), remainders.begin() + n);
    const auto idx = static_cast<std::size_t>(it - remainders.begin());
    out[idx] += 1;
    remainders[idx] -= 1.0;
    --remaining;
  }
}

std::vector<int> CatAllocator::partition(const std::vector<double>& fractions) {
  std::vector<int> ways(fractions.size());
  apportion_ways(fractions, allocatable_ways_, ways);
  clos_.clear();
  int cursor = 0;
  for (std::size_t i = 0; i < ways.size(); ++i) {
    set_clos(static_cast<ClosId>(i), cursor, ways[i]);
    cursor += ways[i];
  }
  return ways;
}

void CatAllocator::reset() { clos_.clear(); }

bool CatAllocator::has_clos(ClosId clos) const {
  return clos_.count(clos) != 0;
}

int CatAllocator::way_count(ClosId clos) const {
  const auto it = clos_.find(clos);
  GNFV_REQUIRE(it != clos_.end(), "CAT: unknown CLOS");
  return it->second.way_count;
}

std::uint64_t CatAllocator::bytes(ClosId clos) const {
  return static_cast<std::uint64_t>(way_count(clos)) * bytes_per_way_;
}

std::uint64_t CatAllocator::cbm(ClosId clos) const {
  const auto it = clos_.find(clos);
  GNFV_REQUIRE(it != clos_.end(), "CAT: unknown CLOS");
  std::uint64_t mask = 0;
  for (int w = 0; w < it->second.way_count; ++w) {
    mask |= 1ull << (ddio_ways_ + it->second.first_way + w);
  }
  return mask;
}

}  // namespace greennfv::hwmodel
