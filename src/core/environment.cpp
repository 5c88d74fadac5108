#include "core/environment.hpp"

#include "common/assert.hpp"
#include "nfvsim/chain.hpp"
#include "traffic/generator.hpp"

namespace greennfv::core {

namespace {

/// Deploys the evaluation chains onto `controller`: chain_nfs, or the
/// standard rotation when it is empty (hybrid, CAT on).
void deploy_eval_chains(
    nfvsim::OnvmController& controller, const hwmodel::NodeSpec& spec,
    int num_chains, const std::vector<std::vector<std::string>>& chain_nfs) {
  GNFV_REQUIRE(chain_nfs.empty() ||
                   chain_nfs.size() == static_cast<std::size_t>(num_chains),
               "make_eval_controller: chain_nfs must match num_chains");
  if (!chain_nfs.empty()) {
    controller.redeploy(spec, nfvsim::SchedMode::kHybrid, chain_nfs);
    return;
  }
  std::vector<std::vector<std::string>> standard;
  for (int c = 0; c < num_chains; ++c)
    standard.push_back(nfvsim::standard_chain_nfs(c));
  controller.redeploy(spec, nfvsim::SchedMode::kHybrid, standard);
}

}  // namespace

std::unique_ptr<nfvsim::OnvmController> make_eval_controller(
    const hwmodel::NodeSpec& spec, int num_chains,
    const std::vector<std::vector<std::string>>& chain_nfs) {
  auto controller = std::make_unique<nfvsim::OnvmController>(
      spec, nfvsim::SchedMode::kHybrid);
  deploy_eval_chains(*controller, spec, num_chains, chain_nfs);
  return controller;
}

NfvEnvironment::NfvEnvironment(EnvConfig config, std::uint64_t seed) {
  reconfigure(std::move(config), seed);
}

void NfvEnvironment::reconfigure(EnvConfig config, std::uint64_t seed) {
  GNFV_REQUIRE(config.num_chains >= 1, "env: need >= 1 chain");
  GNFV_REQUIRE(config.flows.empty() ? config.num_flows >= 1 : true,
               "env: need >= 1 flow");
  GNFV_REQUIRE(config.window_s > 0.0, "env: bad window");
  GNFV_REQUIRE(config.sub_windows >= 1, "env: bad sub-window count");
  config_ = std::move(config);
  const auto num_chains = static_cast<std::size_t>(config_.num_chains);

  if (controller_ == nullptr) {
    controller_ = std::make_unique<nfvsim::OnvmController>(
        config_.spec, nfvsim::SchedMode::kHybrid);
  }
  deploy_eval_chains(*controller_, config_.spec, config_.num_chains,
                     config_.chain_nfs);

  std::vector<traffic::FlowSpec> eval_flows;
  if (config_.flows.empty()) {
    eval_flows = traffic::make_eval_flows(config_.num_flows,
                                          config_.num_chains,
                                          config_.total_offered_gbps, seed);
  }
  const auto& flows = config_.flows.empty() ? eval_flows : config_.flows;
  if (engine_ == nullptr) {
    engine_ = std::make_unique<nfvsim::AnalyticEngine>(
        *controller_, traffic::TrafficGenerator(flows, seed));
  } else {
    engine_->reconfigure(flows, seed);
  }
  engine_->generator().set_rate_profile(config_.rate_profile);

  state_codec_.emplace(config_.spec, num_chains, config_.window_s);
  action_codec_.emplace(config_.spec, num_chains);
  // A default outcome, keeping the observation buffer.
  std::vector<ChainObservation> observations =
      std::move(last_outcome_.observations);
  observations.clear();
  last_outcome_ = WindowOutcome{};
  last_outcome_.observations = std::move(observations);
  last_knobs_.assign(num_chains, nfvsim::baseline_knobs(config_.spec));
  steps_in_episode_ = 0;
}

std::size_t NfvEnvironment::state_dim() const {
  return state_codec_->state_dim();
}

std::size_t NfvEnvironment::action_dim() const {
  return action_codec_->action_dim();
}

const NfvEnvironment::WindowOutcome& NfvEnvironment::run_window(
    const std::vector<nfvsim::ChainKnobs>& knobs) {
  GNFV_REQUIRE(knobs.size() == controller_->num_chains(),
               "run_window: knob count mismatch");
  // In place, so run_window(last_knobs()) re-applies the held knobs.
  last_knobs_.resize(knobs.size());
  for (std::size_t c = 0; c < knobs.size(); ++c) {
    last_knobs_[c] = controller_->apply_knobs(c, knobs[c]);
  }
  return measure_window();
}

const NfvEnvironment::WindowOutcome& NfvEnvironment::measure_window() {
  const double dt = config_.window_s / config_.sub_windows;
  const auto& summary = engine_->run(config_.sub_windows, dt);

  WindowOutcome& outcome = last_outcome_;
  outcome.throughput_gbps = summary.mean_gbps;
  outcome.energy_j = summary.energy_j;
  outcome.drop_fraction = summary.drop_fraction;
  outcome.offered_pps = summary.mean_offered_pps;
  outcome.sla_satisfied =
      config_.sla.satisfied(outcome.throughput_gbps, outcome.energy_j);
  outcome.reward =
      config_.shaped_reward
          ? config_.sla.shaped_reward(outcome.throughput_gbps,
                                      outcome.energy_j)
          : config_.sla.reward(outcome.throughput_gbps, outcome.energy_j);
  outcome.efficiency =
      Sla::efficiency(outcome.throughput_gbps, outcome.energy_j);
  StateCodec::observe(summary, outcome.observations);
  return outcome;
}

std::vector<double> NfvEnvironment::encode_state() const {
  return state_codec_->encode(last_outcome_.observations);
}

std::vector<double> NfvEnvironment::reset(std::uint64_t seed) {
  engine_->reset(seed);
  steps_in_episode_ = 0;
  // Settle one window at the knobs the controller already holds, leaving
  // last_knobs() as it was. Algorithm 3's controller runs continuously —
  // episodes are a training artifact — so the state distribution the
  // policy trains on must match the closed loop it will drive at
  // deployment, not a baseline restart. (The very first reset settles at
  // the construction-time baseline knobs.)
  (void)measure_window();
  return encode_state();
}

rl::Environment::StepResult NfvEnvironment::step(
    std::span<const double> action) {
  const auto knobs = action_codec_->decode(action);
  (void)run_window(knobs);
  ++steps_in_episode_;

  StepResult result;
  result.next_state = encode_state();
  result.reward = last_outcome_.reward;
  result.done = steps_in_episode_ >= config_.steps_per_episode;
  return result;
}

nfvsim::ChainKnobs NfvEnvironment::mean_knobs() const {
  GNFV_REQUIRE(!last_knobs_.empty(), "mean_knobs: no window run yet");
  nfvsim::ChainKnobs mean;
  mean.cores = 0.0;
  mean.freq_ghz = 0.0;
  mean.llc_fraction = 0.0;
  mean.dma_bytes = 0;
  double dma = 0.0;
  double batch = 0.0;
  for (const auto& k : last_knobs_) {
    mean.cores += k.cores;
    mean.freq_ghz += k.freq_ghz;
    mean.llc_fraction += k.llc_fraction;
    dma += static_cast<double>(k.dma_bytes);
    batch += k.batch;
  }
  const auto n = static_cast<double>(last_knobs_.size());
  mean.cores /= n;
  mean.freq_ghz /= n;
  mean.llc_fraction /= n;
  mean.dma_bytes = static_cast<std::uint64_t>(dma / n);
  mean.batch = static_cast<std::uint32_t>(batch / n);
  return mean;
}

}  // namespace greennfv::core
