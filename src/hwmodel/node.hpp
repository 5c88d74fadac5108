#pragma once

#include <array>
#include <cstdint>
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

/// Whole-node results for one steady-state window. A buffer handed back to
/// NodeModel::evaluate also keeps the terms that repeat from window to
/// window (each chain's capacity, frequency scale and power shape, and the
/// manager's frequency scale and power shape) with the exact inputs they
/// came from, and the next evaluation reuses a term whose inputs are
/// bit-equal.
struct NodeEvaluation {
  std::vector<ChainReport> chains;
  double utilization = 0.0;     ///< busy cores / total cores
  double allocated_cores = 0.0;
  double power_w = 0.0;
  double total_goodput_gbps = 0.0;
  double total_offered_gbps = 0.0;
  double total_goodput_pps = 0.0;
  double total_drop_pps = 0.0;
  /// Chain capacities the last evaluation computed; the rest were reused.
  int capacity_evals = 0;

  /// Energy for a window of `seconds` at this steady state.
  [[nodiscard]] double energy_j(double seconds) const {
    return power_w * seconds;
  }

  /// Drops every kept term, so the next evaluation computes them all. The
  /// buffers stay allocated.
  void forget_reuse();

 private:
  friend class NodeModel;

  /// A term of one input, with that input's bit pattern.
  struct TermMemo {
    bool valid = false;
    std::uint64_t input = 0;
    double value = 0.0;
  };

  /// One chain's capacity, frequency scale and power shape, each with the
  /// bit patterns of its inputs.
  struct ChainMemo {
    bool has_capacity = false;
    /// base_cycles, cycles_per_byte, mem_refs_per_pkt and state_bytes of
    /// each NF.
    std::vector<std::array<std::uint64_t, 4>> nfs;
    std::uint32_t pkt_bytes = 0;
    std::uint32_t batch = 0;
    std::uint64_t cores = 0;
    std::uint64_t freq_ghz = 0;
    std::uint64_t llc_bytes = 0;
    std::uint64_t dma_bytes = 0;
    bool shared_llc = false;
    ChainCapacity capacity;
    TermMemo frequency_scale;
    TermMemo shape;

    /// True when `capacity` came from exactly these inputs.
    [[nodiscard]] bool holds(const std::vector<NfCostProfile>& chain_nfs,
                             std::uint32_t frame,
                             const ChainResources& res) const;
    /// Records the inputs `capacity` now comes from.
    void keep(const std::vector<NfCostProfile>& chain_nfs,
              std::uint32_t frame, const ChainResources& res);
  };

  std::vector<ChainMemo> memo_;
  TermMemo manager_scale_;
  TermMemo manager_shape_;
  /// NodeModel::id_ of the model whose terms these are (0 = none).
  std::uint64_t model_ = 0;
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
  /// reused: no heap allocation once it has held these chains. Terms `out`
  /// kept from this model at bit-equal inputs are reused, so the result
  /// equals a fresh evaluation bit for bit.
  void evaluate(const std::vector<ChainDeployment>& chains, bool use_cat,
                NodeEvaluation& out) const;

  [[nodiscard]] const NodeSpec& spec() const { return spec_; }
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }
  [[nodiscard]] const PowerModel& power_model() const { return power_; }

 private:
  /// PowerModel::frequency_scale(freq_ghz), from `memo` when it holds it.
  [[nodiscard]] double frequency_scale(NodeEvaluation::TermMemo& memo,
                                       double freq_ghz) const;
  /// Eq. 4's utilization shape 2u - u^h, from `memo` when it holds it.
  [[nodiscard]] double shape(NodeEvaluation::TermMemo& memo, double u) const;

  NodeSpec spec_;
  CostModel cost_;
  PowerModel power_;
  /// Distinct for every constructed model (copies share it), so a buffer
  /// never reuses terms another spec computed.
  std::uint64_t id_;
};

}  // namespace greennfv::hwmodel
