#include "nfvsim/controller.hpp"

#include <bit>
#include <cstdint>
#include <utility>

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

/// `nfs` becomes the catalog profiles of `nf_names`, in order.
void fill_profiles(const std::vector<std::string>& nf_names,
                   std::vector<hwmodel::NfCostProfile>& nfs) {
  GNFV_REQUIRE(!nf_names.empty(), "controller: empty NF list");
  nfs.clear();
  for (const std::string& name : nf_names)
    nfs.push_back(hwmodel::nf_catalog::by_name(name));
}

}  // namespace

OnvmController::OnvmController(hwmodel::NodeSpec spec, SchedMode mode)
    : spec_(spec), dvfs_(userspace_dvfs(spec)), sched_mode_(mode) {}

int OnvmController::add_chain(const std::vector<std::string>& nf_names) {
  hwmodel::ChainDeployment deployment;
  fill_profiles(nf_names, deployment.nfs);
  deployments_.push_back(std::move(deployment));
  knobs_.push_back(baseline_knobs(spec_));
  requests_.emplace_back();
  return static_cast<int>(deployments_.size()) - 1;
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
  // The entries already held keep their profile buffers.
  deployments_.resize(nf_lists.size());
  knobs_.assign(nf_lists.size(), baseline_knobs(spec_));
  requests_.assign(nf_lists.size(), std::nullopt);
  for (std::size_t i = 0; i < nf_lists.size(); ++i)
    fill_profiles(nf_lists[i], deployments_[i].nfs);
}

ChainKnobs OnvmController::apply_knobs(std::size_t chain_index,
                                       const ChainKnobs& knobs) {
  GNFV_REQUIRE(chain_index < knobs_.size(), "apply_knobs: bad chain index");
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
  GNFV_REQUIRE(workloads.size() == deployments_.size(),
               "deployments: workload count != chain count");
  for (std::size_t i = 0; i < deployments_.size(); ++i) {
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
