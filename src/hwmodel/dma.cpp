#include "hwmodel/dma.hpp"

#include "common/math_util.hpp"
#include "common/units.hpp"

namespace greennfv::hwmodel {

double DmaModel::absorption(std::uint64_t buffer_bytes,
                            std::uint32_t pkt_bytes,
                            double poll_interval_s) const {
  if (buffer_bytes == 0) return 0.0;
  // The buffer backs a descriptor ring of fixed-size mbufs (2 KB in DPDK),
  // so its capacity in *packets* is what matters — a 1 MiB buffer holds
  // only 512 slots whether frames are 64 B or 1518 B. The ring must cover
  // several poll intervals of line-rate arrivals to ride out scheduling
  // jitter; small frames arrive at far higher packet rates and therefore
  // need far more slots for the same absorption (paper Fig. 4's gap
  // between the 64 B and 1518 B curves).
  const double slots =
      static_cast<double>(buffer_bytes) / static_cast<double>(kMbufBytes);
  const double line_pps =
      units::gbps_to_bps(spec_.line_rate_gbps) /
      units::wire_bits_per_frame(pkt_bytes);
  const double burst_pkts = line_pps * poll_interval_s;
  return math_util::saturating(slots, 4.0 * burst_pkts);
}

}  // namespace greennfv::hwmodel
