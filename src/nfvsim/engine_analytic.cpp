#include "nfvsim/engine_analytic.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "telemetry/metrics.hpp"

namespace greennfv::nfvsim {

AnalyticEngine::AnalyticEngine(OnvmController& controller,
                               traffic::TrafficGenerator generator)
    : controller_(controller),
      generator_(std::move(generator)),
      node_model_(controller.spec()) {
  check_flows();
}

void AnalyticEngine::check_flows() const {
  GNFV_REQUIRE(controller_.num_chains() > 0,
               "AnalyticEngine: controller has no chains");
  for (const auto& flow : generator_.flows()) {
    GNFV_REQUIRE(
        flow.chain_index >= 0 &&
            static_cast<std::size_t>(flow.chain_index) <
                controller_.num_chains(),
        "AnalyticEngine: flow references a chain the controller lacks");
  }
}

void AnalyticEngine::fold_workloads() {
  const std::size_t n_chains = controller_.num_chains();
  workloads_.resize(n_chains);
  chain_bytes_.assign(n_chains, 0.0);
  for (auto& workload : workloads_) workload.offered_pps = 0.0;
  const auto& flows = generator_.flows();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto chain = static_cast<std::size_t>(flows[i].chain_index);
    workloads_[chain].offered_pps += load_.per_flow_pps[i];
    chain_bytes_[chain] += load_.per_flow_pps[i] * flows[i].pkt_bytes;
  }
  for (std::size_t c = 0; c < n_chains; ++c) {
    const double pps = workloads_[c].offered_pps;
    workloads_[c].pkt_bytes =
        pps > 0.0 ? static_cast<std::uint32_t>(
                        std::clamp(chain_bytes_[c] / pps, 64.0, 1518.0))
                  : 1024;
  }
}

const WindowMetrics& AnalyticEngine::step(double dt) {
  GNFV_REQUIRE(dt > 0.0, "AnalyticEngine::step: dt must be positive");
  static auto& node_evals = telemetry::metrics::counter("nfvsim.node_evals");
  static auto& capacity_evals =
      telemetry::metrics::counter("nfvsim.capacity_evals");

  generator_.next_window(dt, load_);
  fold_workloads();
  WindowMetrics& metrics = metrics_;
  metrics.t_start_s = time_s_;
  metrics.dt_s = dt;
  metrics.offered_pps = load_.total_pps;
  node_model_.evaluate(controller_.deployments(workloads_),
                       controller_.use_cat(), metrics.node);
  node_evals.add();
  capacity_evals.add(static_cast<std::uint64_t>(metrics.node.capacity_evals));
  metrics.energy_j = metrics.node.power_w * dt;
  meter_.accumulate(metrics.node.power_w, dt);
  time_s_ += dt;

  // Close the TCP loop: attribute each chain's goodput/drops to its flows
  // proportionally to their share of the chain's offered load.
  const auto& flows = generator_.flows();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto chain = static_cast<std::size_t>(flows[i].chain_index);
    const double chain_offered = workloads_[chain].offered_pps;
    if (chain_offered <= 0.0) continue;
    const double share = load_.per_flow_pps[i] / chain_offered;
    const auto& eval = metrics.node.chains[chain].eval;
    generator_.report_feedback(i, eval.goodput_pps * share,
                               eval.drop_pps * share);
  }
  return metrics;
}

const AnalyticEngine::RunSummary& AnalyticEngine::run(int windows,
                                                      double dt) {
  GNFV_REQUIRE(windows > 0, "AnalyticEngine::run: windows must be positive");
  RunSummary& summary = summary_;
  summary.duration_s = 0.0;
  summary.mean_gbps = 0.0;
  summary.mean_power_w = 0.0;
  summary.energy_j = 0.0;
  summary.mean_utilization = 0.0;
  summary.mean_offered_pps = 0.0;
  summary.mean_goodput_pps = 0.0;
  summary.drop_fraction = 0.0;
  const std::size_t n_chains = controller_.num_chains();
  summary.chain_gbps.assign(n_chains, 0.0);
  summary.chain_arrival_pps.assign(n_chains, 0.0);
  summary.chain_energy_j.assign(n_chains, 0.0);
  summary.chain_busy_cores.assign(n_chains, 0.0);

  double goodput_pps_sum = 0.0;
  double offered_pps_sum = 0.0;
  for (int w = 0; w < windows; ++w) {
    const WindowMetrics& m = step(dt);
    summary.duration_s += dt;
    summary.mean_gbps += m.total_gbps();
    summary.mean_power_w += m.power_w();
    summary.energy_j += m.energy_j;
    summary.mean_utilization += m.utilization();
    offered_pps_sum += m.offered_pps;
    goodput_pps_sum += m.node.total_goodput_pps;
    for (std::size_t c = 0; c < n_chains; ++c) {
      summary.chain_gbps[c] += m.node.chains[c].eval.throughput_gbps;
      summary.chain_arrival_pps[c] +=
          m.node.chains[c].eval.goodput_pps + m.node.chains[c].eval.drop_pps;
      summary.chain_energy_j[c] += m.node.chains[c].power_w * dt;
      summary.chain_busy_cores[c] += m.node.chains[c].eval.busy_cores;
    }
  }
  const auto n = static_cast<double>(windows);
  summary.mean_gbps /= n;
  summary.mean_power_w /= n;
  summary.mean_utilization /= n;
  summary.mean_offered_pps = offered_pps_sum / n;
  summary.mean_goodput_pps = goodput_pps_sum / n;
  summary.drop_fraction =
      offered_pps_sum > 0.0
          ? std::max(0.0, 1.0 - goodput_pps_sum / offered_pps_sum)
          : 0.0;
  for (std::size_t c = 0; c < n_chains; ++c) {
    summary.chain_gbps[c] /= n;
    summary.chain_arrival_pps[c] /= n;
    summary.chain_busy_cores[c] /= n;
  }
  return summary;
}

void AnalyticEngine::reset(std::uint64_t seed) {
  generator_.reset(seed);
  metrics_.node.forget_reuse();
  meter_ = hwmodel::EnergyMeter{};
  time_s_ = 0.0;
}

void AnalyticEngine::reconfigure(const std::vector<traffic::FlowSpec>& flows,
                                 std::uint64_t seed) {
  generator_.reset(flows, seed);
  if (!(node_model_.spec() == controller_.spec()))
    node_model_ = hwmodel::NodeModel(controller_.spec());
  metrics_.node.forget_reuse();
  meter_ = hwmodel::EnergyMeter{};
  time_s_ = 0.0;
  check_flows();
}

}  // namespace greennfv::nfvsim
