#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "nfvsim/controller.hpp"
#include "nfvsim/mempool.hpp"
#include "traffic/flow.hpp"

/// \file engine_threaded.hpp
/// The real multi-threaded data path: a generator/RX thread allocates
/// packets from the shared mempool and bursts them into each chain's RX
/// ring; one worker thread per chain polls its ring in batches (the batch
/// knob), runs the packets through the chain's NFs inline, counts
/// deliveries, and returns packets to the pool. For the length of a run
/// the engine owns the rings and one ServiceChain per controller chain,
/// built from the chain's cost-profile names, so every run starts from
/// newly built NFs. In hybrid mode workers back off (yield/sleep) on
/// empty polls — the paper's callback+polling mix; in poll mode they spin.
///
/// This engine is about *correctness of the plumbing* (conservation,
/// backpressure, burst handling), not about reproducing the paper's
/// absolute numbers — those come from the calibrated analytic engine.

namespace greennfv::nfvsim {

struct ThreadedRunReport {
  std::uint64_t generated = 0;       ///< packets the generator injected
  std::uint64_t pool_exhausted = 0;  ///< allocation failures (NIC drop)
  std::uint64_t rx_ring_drops = 0;   ///< RX ring full (backpressure drop)
  std::uint64_t delivered = 0;       ///< packets that cleared the chain
  std::uint64_t nf_drops = 0;        ///< dropped by NF logic (ACL, TTL...)
  double wall_seconds = 0.0;
  double delivered_pps = 0.0;
  std::vector<std::uint64_t> per_chain_delivered;

  /// Conservation check: everything injected is accounted for.
  [[nodiscard]] bool conserved() const {
    return generated == delivered + nf_drops + rx_ring_drops;
  }
};

class ThreadedEngine {
 public:
  struct Options {
    /// Total packets to inject across all flows.
    std::uint64_t total_packets = 100000;
    /// Mempool capacity (pool pressure creates allocation drops).
    std::size_t pool_capacity = 8192;
    /// Generator burst size per flow per round.
    std::size_t gen_burst = 64;
  };

  ThreadedEngine(OnvmController& controller, Options options);

  /// Injects `options.total_packets` split round-robin over `flows` and
  /// runs until every packet is delivered, dropped, or accounted. The
  /// batch knob of each chain controls worker poll size.
  ThreadedRunReport run(const std::vector<traffic::FlowSpec>& flows,
                        std::uint64_t seed);

 private:
  OnvmController& controller_;
  Options options_;
};

}  // namespace greennfv::nfvsim
