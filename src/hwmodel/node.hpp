#pragma once

#include <vector>

#include "hwmodel/cat.hpp"
#include "hwmodel/cost_model.hpp"
#include "hwmodel/power_model.hpp"

/// \file node.hpp
/// NodeModel: the full analytic model of one NFV host. Takes the set of
/// chains deployed on the node — each with its NF list, offered load, and
/// resource knobs — and produces steady-state throughput, utilization, and
/// power, with per-chain attribution for the figures that report per-chain
/// energy (Fig. 1c, Fig. 4b).

namespace greennfv::hwmodel {

/// One chain's deployment on the node, in knob form (LLC as a CAT fraction).
struct ChainDeployment {
  std::vector<NfCostProfile> nfs;
  ChainWorkload workload;
  /// The five GreenNFV control knobs plus the scheduling mode.
  double cores = 1.0;
  double freq_ghz = 2.1;
  double llc_fraction = 0.25;  ///< share of allocatable (non-DDIO) LLC
  std::uint64_t dma_bytes = 2ull << 20;
  std::uint32_t batch = 32;
  bool poll_mode = false;
};

/// Per-chain results plus attributed power.
struct ChainReport {
  ChainEvaluation eval;
  double power_w = 0.0;        ///< this chain's attributed share incl. idle
  double energy_per_mpkt_j = 0.0;  ///< joules per million delivered packets
  std::uint64_t llc_bytes = 0; ///< resolved CAT allocation
};

/// Whole-node results for one steady-state window.
struct NodeEvaluation {
  std::vector<ChainReport> chains;
  double utilization = 0.0;     ///< busy cores / total cores
  double allocated_cores = 0.0;
  double power_w = 0.0;
  double total_goodput_gbps = 0.0;
  double total_offered_gbps = 0.0;
  double total_goodput_pps = 0.0;
  double total_drop_pps = 0.0;

  /// Energy for a window of `seconds` at this steady state.
  [[nodiscard]] double energy_j(double seconds) const {
    return power_w * seconds;
  }
};

class NodeModel {
 public:
  explicit NodeModel(const NodeSpec& spec = NodeSpec{});

  /// Evaluates the node at steady state.
  ///
  /// `use_cat` = true partitions the allocatable LLC by each chain's
  /// llc_fraction (GreenNFV's mode); false leaves the cache unpartitioned
  /// so chains receive contended, demand-proportional shares (the
  /// baseline's mode).
  [[nodiscard]] NodeEvaluation evaluate(
      const std::vector<ChainDeployment>& chains, bool use_cat = true) const;

  /// The same evaluation written into `out`, whose per-chain buffer is
  /// reused: no heap allocation once it has held this many chains.
  void evaluate(const std::vector<ChainDeployment>& chains, bool use_cat,
                NodeEvaluation& out) const;

  [[nodiscard]] const NodeSpec& spec() const { return spec_; }
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }
  [[nodiscard]] const PowerModel& power_model() const { return power_; }

 private:
  NodeSpec spec_;
  CostModel cost_;
  PowerModel power_;
};

}  // namespace greennfv::hwmodel
