#include "traffic/generator.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace greennfv::traffic {

namespace {

void check_flows(const std::vector<FlowSpec>& flows) {
  GNFV_REQUIRE(!flows.empty(), "TrafficGenerator: no flows");
  for (const auto& flow : flows) validate(flow);
}

}  // namespace

TrafficGenerator::TrafficGenerator(std::vector<FlowSpec> flows,
                                   std::uint64_t seed)
    : flows_(std::move(flows)), rng_(seed) {
  check_flows(flows_);
  reset(seed);
}

WindowLoad TrafficGenerator::next_window(double dt) {
  WindowLoad load;
  next_window(dt, load);
  return load;
}

void TrafficGenerator::next_window(double dt, WindowLoad& load) {
  GNFV_REQUIRE(dt > 0.0, "next_window: dt must be positive");
  load.per_flow_pps.resize(flows_.size());
  load.total_pps = 0.0;
  // Envelope evaluated at the window midpoint so square-wave edges land
  // where a whole-window average would put them.
  const double envelope =
      profile_.multiplier(time_s_ - profile_t0_s_ + 0.5 * dt);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    double rate = arrivals_[i]->rate_in_window(dt, rng_) * envelope;
    if (flows_[i].proto == Protocol::kTcp) rate *= tcp_window_[i];
    load.per_flow_pps[i] = rate;
    load.total_pps += rate;
  }
  time_s_ += dt;
}

void TrafficGenerator::report_feedback(std::size_t flow_index,
                                       double goodput_pps, double drop_pps) {
  GNFV_REQUIRE(flow_index < flows_.size(), "report_feedback: bad index");
  if (flows_[flow_index].proto != Protocol::kTcp) return;
  (void)goodput_pps;
  double& window = tcp_window_[flow_index];
  if (drop_pps > 1e-6) {
    window = std::max(0.05, window * kAimdDecrease);
  } else {
    window = std::min(1.0, window + kAimdIncreaseStep);
  }
}

void TrafficGenerator::steer_flow(std::size_t flow_index, int chain_index) {
  GNFV_REQUIRE(flow_index < flows_.size(), "steer_flow: bad flow index");
  GNFV_REQUIRE(chain_index >= 0, "steer_flow: negative chain index");
  flows_[flow_index].chain_index = chain_index;
}

void TrafficGenerator::set_rate_profile(const RateProfile& profile) {
  profile.validate();
  profile_ = profile;
}

void TrafficGenerator::reset(std::uint64_t seed) {
  rng_ = Rng(seed);
  time_s_ = 0.0;
  profile_t0_s_ = 0.0;
  tcp_window_.assign(flows_.size(), 1.0);
  arrivals_.clear();
  for (const auto& flow : flows_) arrivals_.push_back(make_arrival(flow));
}

void TrafficGenerator::reset(const std::vector<FlowSpec>& flows,
                             std::uint64_t seed) {
  check_flows(flows);
  flows_ = flows;
  profile_ = RateProfile{};
  reset(seed);
}

std::vector<FlowSpec> make_eval_flows(int n, int num_chains,
                                      double total_gbps, std::uint64_t seed) {
  GNFV_REQUIRE(n >= 1, "make_eval_flows: need at least one flow");
  GNFV_REQUIRE(num_chains >= 1, "make_eval_flows: need at least one chain");
  Rng rng(seed);

  // Deterministic workload *structure* (packet sizes, arrival kinds,
  // protocols cycle through fixed IMIX-style patterns) with randomized
  // *dynamics* (rates, burst shapes, phases). Keeping the structure fixed
  // makes evaluations comparable across seeds — two runs see the same kind
  // of traffic, just different realizations — which is also how the
  // paper's MoonGen scripts work.
  static constexpr std::uint32_t kSizes[] = {64, 128, 256, 512, 1518};
  static constexpr ArrivalKind kKinds[] = {
      ArrivalKind::kCbr, ArrivalKind::kMmpp, ArrivalKind::kPoisson,
      ArrivalKind::kOnOff};

  std::vector<FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(n));
  std::vector<double> weights(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FlowSpec flow;
    flow.id = i;
    flow.proto =
        (i % 3 == 2) ? Protocol::kTcp : Protocol::kUdp;
    flow.arrival = kKinds[static_cast<std::size_t>(i) % 4];
    flow.pkt_bytes = kSizes[static_cast<std::size_t>(i) % 5];
    flow.peak_to_mean = rng.uniform(1.5, 3.0);
    flow.dwell_s = rng.uniform(0.2, 1.0);
    flow.chain_index = i % num_chains;
    weights[static_cast<std::size_t>(i)] = rng.uniform(0.8, 1.2);
    flows.push_back(flow);
  }
  // Second pass: scale rates so aggregate offered bits match total_gbps.
  double weighted_bits = 0.0;
  for (int i = 0; i < n; ++i)
    weighted_bits += weights[static_cast<std::size_t>(i)] *
                     flows[static_cast<std::size_t>(i)].pkt_bytes * 8.0;
  const double unit_rate = units::gbps_to_bps(total_gbps) / weighted_bits;
  for (int i = 0; i < n; ++i) {
    flows[static_cast<std::size_t>(i)].mean_rate_pps =
        unit_rate * weights[static_cast<std::size_t>(i)];
  }
  return flows;
}

FlowSpec line_rate_flow(std::uint32_t pkt_bytes, double line_rate_gbps,
                        int chain_index) {
  FlowSpec flow;
  flow.id = 0;
  flow.proto = Protocol::kUdp;
  flow.arrival = ArrivalKind::kCbr;
  flow.pkt_bytes = pkt_bytes;
  // Line rate accounts for preamble+IFG on the wire.
  flow.mean_rate_pps = units::gbps_to_bps(line_rate_gbps) /
                       units::wire_bits_per_frame(pkt_bytes);
  flow.chain_index = chain_index;
  return flow;
}

}  // namespace greennfv::traffic
