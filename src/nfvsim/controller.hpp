#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hwmodel/dvfs.hpp"
#include "hwmodel/node.hpp"
#include "hwmodel/nf_cost.hpp"
#include "nfvsim/knobs.hpp"

/// \file controller.hpp
/// The ONVM-style manager. Holds what the node model reads of each chain:
/// its NFs' cost profiles, its knob configuration and its last knob
/// request. It snaps DVFS requests to the ladder, drives CAT partitioning,
/// and translates its state into hwmodel deployments for the analytic
/// engine. It holds no NF objects: the threaded engine builds the packet
/// path from the profiles' names for each run. GreenNFV's NF controller
/// (core/nf_controller) issues `apply_knobs` calls against this class —
/// the same interface the paper added to the ONVM controller.

namespace greennfv::nfvsim {

/// NF scheduling discipline.
enum class SchedMode {
  kPoll,    ///< DPDK default: dedicated spinning, 100% duty
  kHybrid,  ///< paper's "mix of callback and polling": sleep on empty queues
};

[[nodiscard]] std::string to_string(SchedMode mode);

class OnvmController {
 public:
  explicit OnvmController(hwmodel::NodeSpec spec = hwmodel::NodeSpec{},
                          SchedMode mode = SchedMode::kHybrid);

  /// Deploys a chain of NF catalog names, e.g. {"firewall","router","ids"},
  /// with baseline knobs; returns its index. Throws std::invalid_argument
  /// for an unknown name and leaves the controller as it was.
  int add_chain(const std::vector<std::string>& nf_names);

  /// Becomes OnvmController(spec, mode) followed by add_chain(nf_lists[i])
  /// for each i: CAT on, baseline knobs. It refills the deployment entries
  /// it holds, and rebuilds the DVFS ladder only when the spec changed. If
  /// it throws (an unknown NF name), the controller is unusable until a
  /// redeploy succeeds.
  void redeploy(const hwmodel::NodeSpec& spec, SchedMode mode,
                const std::vector<std::vector<std::string>>& nf_lists);

  [[nodiscard]] std::size_t num_chains() const { return deployments_.size(); }

  /// Cost profiles of a chain's NFs, in chain order.
  [[nodiscard]] const std::vector<hwmodel::NfCostProfile>& profiles(
      std::size_t i) const {
    return deployments_.at(i).nfs;
  }

  /// Applies a knob configuration to one chain: clamps to hardware limits
  /// and snaps the frequency to the DVFS ladder. Returns what was applied;
  /// a request bit-equal to the chain's previous one returns the knobs
  /// the chain holds without clamping again.
  ChainKnobs apply_knobs(std::size_t chain_index, const ChainKnobs& knobs);

  [[nodiscard]] const ChainKnobs& knobs(std::size_t chain_index) const {
    return knobs_.at(chain_index);
  }

  /// Enables/disables CAT partitioning (baseline runs without it).
  void set_use_cat(bool use_cat) { use_cat_ = use_cat; }
  [[nodiscard]] bool use_cat() const { return use_cat_; }

  void set_sched_mode(SchedMode mode) { sched_mode_ = mode; }
  [[nodiscard]] SchedMode sched_mode() const { return sched_mode_; }

  [[nodiscard]] const hwmodel::NodeSpec& spec() const { return spec_; }
  [[nodiscard]] const hwmodel::DvfsController& dvfs() const { return dvfs_; }

  /// hwmodel deployments for the current knob state and the given
  /// per-chain workloads (one entry per chain). The controller owns the
  /// buffer, whose entries hold their chain's cost profiles: valid until
  /// the next call or redeploy.
  [[nodiscard]] const std::vector<hwmodel::ChainDeployment>& deployments(
      const std::vector<hwmodel::ChainWorkload>& workloads);

 private:
  hwmodel::NodeSpec spec_;
  hwmodel::DvfsController dvfs_;
  SchedMode sched_mode_;
  bool use_cat_ = true;
  std::vector<ChainKnobs> knobs_;
  /// Each chain's last apply_knobs request, whose result knobs_ holds.
  std::vector<std::optional<ChainKnobs>> requests_;
  /// One entry per chain; its `nfs` are the chain's cost profiles.
  std::vector<hwmodel::ChainDeployment> deployments_;
};

}  // namespace greennfv::nfvsim
