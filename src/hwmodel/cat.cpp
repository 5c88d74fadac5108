#include "hwmodel/cat.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

#include "common/assert.hpp"

namespace greennfv::hwmodel {

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

}  // namespace greennfv::hwmodel
