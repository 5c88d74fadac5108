#pragma once

#include <cstdint>
#include <vector>

#include "hwmodel/cache.hpp"
#include "hwmodel/dma.hpp"
#include "hwmodel/nf_cost.hpp"
#include "hwmodel/node_spec.hpp"

/// \file cost_model.hpp
/// The analytic throughput model: maps (chain NFs, offered load, resource
/// knobs) to cycles/packet, service rate, goodput, and drop behaviour.
///
/// Model structure (each term is individually exercised by the paper's
/// micro-benchmarks):
///
///   cycles/pkt = Σ_nf [ base + cpb·bytes + refs·miss·latency(f) ]
///              + hops·(hop + call/batch)                      (batching, Fig 3)
///              + pkt_lines·(1 - ddio_hit)·latency(f)          (DDIO, Fig 4)
///
///   miss      = capacity curve of WS vs CAT allocation        (LLC, Fig 1)
///   latency(f)= mem_latency_ns · f  — constant in time, so higher
///               frequency pays more *cycles* per miss          (DVFS, Fig 2)
///
///   service   = cores · f / cycles/pkt, capped by the DMA absorption limit
///   goodput   = offered when underloaded; receive-livelock collapse
///               service·(service/offered)^β when overloaded.

namespace greennfv::hwmodel {

/// Offered load presented to one chain.
struct ChainWorkload {
  double offered_pps = 0.0;
  std::uint32_t pkt_bytes = 1024;
};

/// Resolved resource assignment for one chain (LLC already in bytes; the
/// NodeModel translates the CAT fraction knob before calling in here).
struct ChainResources {
  double cores = 1.0;
  double freq_ghz = 2.1;
  std::uint64_t llc_bytes = 1ull << 20;
  std::uint64_t dma_bytes = 2ull << 20;
  std::uint32_t batch = 32;
  /// Pure poll-mode burns full duty on the allocated cores; hybrid
  /// (callback+poll, what GreenNFV implements) lets idle NFs sleep.
  bool poll_mode = false;
  /// LLC not partitioned by CAT (baseline mode): conflict misses apply.
  bool shared_llc = false;
};

/// What one chain can serve at its knobs and frame size, whatever load is
/// offered: the load-independent half of CostModel::evaluate_chain.
struct ChainCapacity {
  double cycles_per_pkt = 0.0;
  double misses_per_pkt = 0.0;
  double miss_ratio = 0.0;
  double ddio_hit = 1.0;
  std::uint64_t working_set_bytes = 0;
  double service_pps = 0.0;  ///< min(CPU rate, DMA-limited input rate)
};

/// Everything the model can say about one chain at steady state.
struct ChainEvaluation {
  double cycles_per_pkt = 0.0;
  double service_pps = 0.0;     ///< capacity at these knobs
  double goodput_pps = 0.0;     ///< delivered packets after drops
  double drop_pps = 0.0;
  double throughput_gbps = 0.0; ///< payload bits delivered
  double wire_gbps = 0.0;       ///< incl. Ethernet preamble+IFG
  double miss_ratio = 0.0;
  double misses_per_pkt = 0.0;
  double ddio_hit = 1.0;
  double busy_cores = 0.0;      ///< cores actually burning cycles
  double capacity_utilization = 0.0;  ///< goodput / service
  std::uint64_t working_set_bytes = 0;
  /// Mean packet sojourn time: batch-assembly wait + service + M/M/1-style
  /// queueing delay. The latency face of the batching trade-off — large
  /// batches buy throughput (Fig. 3) but add assembly delay, the constraint
  /// the delay-aware related work (Qu et al., Kar et al.) optimizes.
  double mean_latency_us = 0.0;
};

class CostModel {
 public:
  explicit CostModel(const NodeSpec& spec)
      : spec_(spec), cache_(spec), dma_(spec) {}

  /// Steady-state evaluation of one chain:
  /// evaluate_load(capacity(nfs, load.pkt_bytes, res), load, res).
  [[nodiscard]] ChainEvaluation evaluate_chain(
      const std::vector<NfCostProfile>& nfs, const ChainWorkload& load,
      const ChainResources& res) const;

  /// The load-independent half: cache behaviour, cycles and misses per
  /// packet, and the service rate for frames of `pkt_bytes`. Depends on
  /// every NF cost field, `pkt_bytes` and every field of `res` but
  /// `poll_mode`.
  [[nodiscard]] ChainCapacity capacity(const std::vector<NfCostProfile>& nfs,
                                       std::uint32_t pkt_bytes,
                                       const ChainResources& res) const;

  /// The load half: goodput (with receive livelock), drops, core occupancy
  /// and latency of `load` against `cap`, which capacity() computed for
  /// load.pkt_bytes and the same `res`.
  [[nodiscard]] ChainEvaluation evaluate_load(const ChainCapacity& cap,
                                              const ChainWorkload& load,
                                              const ChainResources& res) const;

  /// The cache demand a chain presents (exposed for NodeModel's
  /// contention bookkeeping).
  [[nodiscard]] CacheDemand demand_of(const std::vector<NfCostProfile>& nfs,
                                      std::uint32_t pkt_bytes,
                                      const ChainResources& res) const;

  [[nodiscard]] const NodeSpec& spec() const { return spec_; }
  [[nodiscard]] const CacheModel& cache() const { return cache_; }
  [[nodiscard]] const DmaModel& dma() const { return dma_; }

 private:
  NodeSpec spec_;
  CacheModel cache_;
  DmaModel dma_;
};

}  // namespace greennfv::hwmodel
