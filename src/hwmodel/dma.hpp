#pragma once

#include <cstdint>

#include "hwmodel/node_spec.hpp"

/// \file dma.hpp
/// NIC DMA buffer model. The DMA buffer (descriptor ring + mbuf backing
/// store) determines how large a burst the NIC can absorb before the poll
/// loop drains it. Too small a buffer stalls the NIC between polls (lost
/// slots -> throughput loss); growing it improves absorption with
/// diminishing returns; growing it past the DDIO ways additionally spills
/// inbound packets to DRAM (handled in CacheModel). This reproduces the
/// paper's Fig. 4: throughput "steadily increases up to a certain level"
/// with buffer size while energy per packet falls.

namespace greennfv::hwmodel {

class DmaModel {
 public:
  explicit DmaModel(const NodeSpec& spec) : spec_(spec) {}

  /// Fraction of NIC line rate sustainable with `buffer_bytes` of DMA
  /// buffering for packets of `pkt_bytes`. Rises from ~0 (no buffer) toward
  /// 1 following occupancy/(occupancy + k) where k is the burst the NIC must
  /// absorb during one poll interval: poll_interval_s * line_rate.
  [[nodiscard]] double absorption(std::uint64_t buffer_bytes,
                                  std::uint32_t pkt_bytes,
                                  double poll_interval_s) const;

  /// Default poll interval used when callers do not track one explicitly:
  /// the time to process one batch at a nominal 1 Mpps service rate.
  static constexpr double kDefaultPollIntervalS = 100e-6;

  /// Fixed mbuf slot size backing the descriptor ring (DPDK default 2 KB).
  static constexpr std::uint64_t kMbufBytes = 2048;

 private:
  NodeSpec spec_;
};

}  // namespace greennfv::hwmodel
