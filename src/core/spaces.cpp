#include "core/spaces.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace greennfv::core {

namespace {

/// Maps a value in [lo, hi] to [-1, 1].
double to_unit(double x, double lo, double hi) {
  return math_util::remap(x, lo, hi, -1.0, 1.0);
}

/// Maps a coordinate in [-1, 1] to [lo, hi].
double from_unit(double u, double lo, double hi) {
  return math_util::remap(u, -1.0, 1.0, lo, hi);
}

}  // namespace

StateCodec::StateCodec(const hwmodel::NodeSpec& spec, std::size_t num_chains,
                       double window_s)
    : num_chains_(num_chains),
      max_gbps_(spec.line_rate_gbps),
      max_energy_j_(spec.p_max_w * window_s),
      max_cores_(nfvsim::ChainKnobs::kMaxCores),
      // Worst case arrival: line rate of minimum-size frames.
      max_pps_(units::gbps_to_bps(spec.line_rate_gbps) /
               units::wire_bits_per_frame(64)) {
  GNFV_REQUIRE(num_chains >= 1, "StateCodec: no chains");
  GNFV_REQUIRE(window_s > 0.0, "StateCodec: bad window");
}

std::vector<double> StateCodec::encode(
    const std::vector<ChainObservation>& obs) const {
  GNFV_REQUIRE(obs.size() == num_chains_, "StateCodec: chain count mismatch");
  std::vector<double> state;
  state.reserve(state_dim());
  for (const auto& o : obs) {
    state.push_back(to_unit(o.throughput_gbps, 0.0, max_gbps_));
    state.push_back(to_unit(o.energy_j, 0.0, max_energy_j_));
    state.push_back(to_unit(o.busy_cores, 0.0, max_cores_));
    state.push_back(to_unit(o.arrival_pps, 0.0, max_pps_));
  }
  return state;
}

void StateCodec::observe(const nfvsim::AnalyticEngine::RunSummary& summary,
                         std::vector<ChainObservation>& obs) {
  obs.resize(summary.chain_gbps.size());
  for (std::size_t c = 0; c < obs.size(); ++c) {
    obs[c].throughput_gbps = summary.chain_gbps[c];
    obs[c].energy_j = summary.chain_energy_j[c];
    obs[c].busy_cores = summary.chain_busy_cores[c];
    obs[c].arrival_pps = summary.chain_arrival_pps[c];
  }
}

ActionCodec::ActionCodec(const hwmodel::NodeSpec& spec,
                         std::size_t num_chains)
    : spec_(spec),
      num_chains_(num_chains),
      min_dma_mib_(units::bytes_to_mib(nfvsim::ChainKnobs::kMinDmaBytes)),
      max_dma_mib_(spec.max_dma_buffer_mib) {
  GNFV_REQUIRE(num_chains >= 1, "ActionCodec: no chains");
}

std::vector<nfvsim::ChainKnobs> ActionCodec::decode(
    std::span<const double> action) const {
  GNFV_REQUIRE(action.size() == action_dim(),
               "ActionCodec::decode: dimension mismatch");
  std::vector<nfvsim::ChainKnobs> knobs(num_chains_);
  for (std::size_t c = 0; c < num_chains_; ++c) {
    const std::size_t base = 5 * c;
    nfvsim::ChainKnobs& k = knobs[c];
    k.cores = from_unit(action[base + 0], nfvsim::ChainKnobs::kMinCores,
                        nfvsim::ChainKnobs::kMaxCores);
    k.freq_ghz = from_unit(action[base + 1], spec_.fmin_ghz, spec_.fmax_ghz);
    k.llc_fraction =
        from_unit(action[base + 2], nfvsim::ChainKnobs::kMinLlcFraction,
                  nfvsim::ChainKnobs::kMaxLlcFraction);
    k.dma_bytes = units::mib_to_bytes(
        from_unit(action[base + 3], min_dma_mib_, max_dma_mib_));
    k.batch = static_cast<std::uint32_t>(std::lround(from_unit(
        action[base + 4], nfvsim::ChainKnobs::kMinBatch,
        nfvsim::ChainKnobs::kMaxBatch)));
    k = k.clamped(spec_);
  }
  return knobs;
}

std::vector<double> ActionCodec::encode(
    const std::vector<nfvsim::ChainKnobs>& knobs) const {
  GNFV_REQUIRE(knobs.size() == num_chains_,
               "ActionCodec::encode: chain count mismatch");
  std::vector<double> action;
  action.reserve(action_dim());
  for (const auto& k : knobs) {
    action.push_back(to_unit(k.cores, nfvsim::ChainKnobs::kMinCores,
                             nfvsim::ChainKnobs::kMaxCores));
    action.push_back(to_unit(k.freq_ghz, spec_.fmin_ghz, spec_.fmax_ghz));
    action.push_back(to_unit(k.llc_fraction,
                             nfvsim::ChainKnobs::kMinLlcFraction,
                             nfvsim::ChainKnobs::kMaxLlcFraction));
    action.push_back(to_unit(units::bytes_to_mib(k.dma_bytes), min_dma_mib_,
                             max_dma_mib_));
    action.push_back(to_unit(static_cast<double>(k.batch),
                             nfvsim::ChainKnobs::kMinBatch,
                             nfvsim::ChainKnobs::kMaxBatch));
  }
  return action;
}

}  // namespace greennfv::core
