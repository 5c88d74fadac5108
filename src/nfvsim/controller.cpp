#include "nfvsim/controller.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace greennfv::nfvsim {

std::string to_string(SchedMode mode) {
  return mode == SchedMode::kPoll ? "poll" : "hybrid";
}

namespace {

hwmodel::DvfsController userspace_dvfs(const hwmodel::NodeSpec& spec) {
  hwmodel::DvfsController dvfs(spec);
  dvfs.set_governor(hwmodel::Governor::kUserspace);
  return dvfs;
}

/// Equal bit patterns, so -0.0 and +0.0 differ and a NaN matches only
/// itself.
bool bit_equal(const ChainKnobs& a, const ChainKnobs& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return bits(a.cores) == bits(b.cores) &&
         bits(a.freq_ghz) == bits(b.freq_ghz) &&
         bits(a.llc_fraction) == bits(b.llc_fraction) &&
         a.dma_bytes == b.dma_bytes && a.batch == b.batch;
}

}  // namespace

OnvmController::OnvmController(hwmodel::NodeSpec spec, SchedMode mode)
    : spec_(spec), dvfs_(userspace_dvfs(spec)), sched_mode_(mode) {}

int OnvmController::add_chain(const std::string& name,
                              const std::vector<std::string>& nf_names) {
  deploy(std::make_unique<ServiceChain>(name, nf_names));
  return static_cast<int>(chains_.size()) - 1;
}

void OnvmController::redeploy(
    const hwmodel::NodeSpec& spec, SchedMode mode,
    const std::vector<std::vector<std::string>>& nf_lists) {
  if (!(spec == spec_)) {
    spec_ = spec;
    dvfs_ = userspace_dvfs(spec);
  }
  sched_mode_ = mode;
  use_cat_ = true;
  spares_.swap(chains_);
  chains_.reserve(nf_lists.size());
  knobs_.clear();
  requests_.clear();
  for (std::size_t i = 0; i < nf_lists.size(); ++i) {
    std::string name = "chain" + std::to_string(i);
    const auto spare = std::find_if(
        spares_.begin(), spares_.end(),
        [&](const std::unique_ptr<ServiceChain>& chain) {
          return chain != nullptr && chain->runs(nf_lists[i]);
        });
    if (spare == spares_.end()) {
      deploy(std::make_unique<ServiceChain>(std::move(name), nf_lists[i]));
    } else {
      (*spare)->reuse_as(std::move(name));
      deploy(std::move(*spare));
    }
  }
  spares_.clear();
  deployments_.resize(chains_.size());
}

void OnvmController::deploy(std::unique_ptr<ServiceChain> chain) {
  // A redeploy refills the deployment entries it already holds, keeping
  // their profile buffers.
  const std::size_t i = chains_.size();
  if (i == deployments_.size()) deployments_.emplace_back();
  std::vector<hwmodel::NfCostProfile>& profiles = deployments_[i].nfs;
  profiles.clear();
  for (std::size_t k = 0; k < chain->num_nfs(); ++k)
    profiles.push_back(chain->nf(k).profile());
  chains_.push_back(std::move(chain));
  knobs_.push_back(baseline_knobs(spec_));
  requests_.emplace_back();
}

ChainKnobs OnvmController::apply_knobs(std::size_t chain_index,
                                       const ChainKnobs& knobs) {
  GNFV_REQUIRE(chain_index < chains_.size(), "apply_knobs: bad chain index");
  std::optional<ChainKnobs>& request = requests_[chain_index];
  if (request && bit_equal(*request, knobs)) return knobs_[chain_index];
  ChainKnobs applied = knobs.clamped(spec_);
  applied.freq_ghz = dvfs_.snap(applied.freq_ghz);
  knobs_[chain_index] = applied;
  request = knobs;
  return applied;
}

const std::vector<hwmodel::ChainDeployment>& OnvmController::deployments(
    const std::vector<hwmodel::ChainWorkload>& workloads) {
  GNFV_REQUIRE(workloads.size() == chains_.size(),
               "deployments: workload count != chain count");
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    hwmodel::ChainDeployment& dep = deployments_[i];
    dep.workload = workloads[i];
    dep.cores = knobs_[i].cores;
    dep.freq_ghz = knobs_[i].freq_ghz;
    dep.llc_fraction = knobs_[i].llc_fraction;
    dep.dma_bytes = knobs_[i].dma_bytes;
    dep.batch = knobs_[i].batch;
    dep.poll_mode = sched_mode_ == SchedMode::kPoll;
  }
  return deployments_;
}

}  // namespace greennfv::nfvsim
