#include "core/sdn_controller.hpp"

#include <gtest/gtest.h>

#include "nfvsim/chain.hpp"

namespace greennfv::core {
namespace {

std::vector<traffic::FlowSpec> skewed_flows() {
  // Three flows on chain 0, one on chain 1, none on chain 2.
  std::vector<traffic::FlowSpec> flows;
  for (int i = 0; i < 4; ++i) {
    traffic::FlowSpec f;
    f.id = i;
    f.pkt_bytes = 256;
    f.mean_rate_pps = (i + 1) * 1e5;
    f.chain_index = i < 3 ? 0 : 1;
    flows.push_back(f);
  }
  return flows;
}

std::vector<ChainObservation> skewed_obs() {
  std::vector<ChainObservation> obs(3);
  obs[0].arrival_pps = 6e5;
  obs[1].arrival_pps = 4e5;
  obs[2].arrival_pps = 0.5e5;
  return obs;
}

TEST(Sdn, SkewMetric) {
  std::vector<ChainObservation> balanced(3);
  for (auto& o : balanced) o.arrival_pps = 1e6;
  EXPECT_NEAR(SdnController::skew(balanced), 1.0, 1e-9);
  EXPECT_GT(SdnController::skew(skewed_obs()), 1.5);
  std::vector<ChainObservation> idle(2);
  EXPECT_NEAR(SdnController::skew(idle), 1.0, 1e-9);  // no traffic
}

TEST(Sdn, MovesSmallestFlowOffHotChain) {
  traffic::TrafficGenerator gen(skewed_flows(), 1);
  SdnController sdn;
  const auto moves = sdn.rebalance(skewed_obs(), gen);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from_chain, 0);
  EXPECT_EQ(moves[0].to_chain, 2);  // coldest chain
  // Smallest flow on chain 0 is flow 0 (1e5 pps).
  EXPECT_EQ(moves[0].flow_index, 0u);
  EXPECT_EQ(gen.flows()[0].chain_index, 2);
  EXPECT_EQ(sdn.rebalances_performed(), 1);
}

TEST(Sdn, CooldownSuppressesChurn) {
  traffic::TrafficGenerator gen(skewed_flows(), 2);
  SdnConfig config;
  config.cooldown_windows = 3;
  SdnController sdn(config);
  EXPECT_FALSE(sdn.rebalance(skewed_obs(), gen).empty());
  // Immediately after a move the controller must hold its fire.
  EXPECT_TRUE(sdn.rebalance(skewed_obs(), gen).empty());
  EXPECT_TRUE(sdn.rebalance(skewed_obs(), gen).empty());
  EXPECT_TRUE(sdn.rebalance(skewed_obs(), gen).empty());
  EXPECT_FALSE(sdn.rebalance(skewed_obs(), gen).empty());
}

TEST(Sdn, BalancedLoadNeedsNoMoves) {
  traffic::TrafficGenerator gen(skewed_flows(), 3);
  std::vector<ChainObservation> balanced(3);
  for (auto& o : balanced) o.arrival_pps = 1e6;
  SdnController sdn;
  EXPECT_TRUE(sdn.rebalance(balanced, gen).empty());
  EXPECT_EQ(sdn.rebalances_performed(), 0);
}

TEST(Sdn, NeverEmptiesAChain) {
  // Only one flow on the hot chain: moving it would empty the chain.
  std::vector<traffic::FlowSpec> flows;
  traffic::FlowSpec f;
  f.pkt_bytes = 256;
  f.mean_rate_pps = 1e6;
  f.chain_index = 0;
  flows.push_back(f);
  traffic::TrafficGenerator gen(flows, 4);
  SdnController sdn;
  EXPECT_TRUE(sdn.rebalance(skewed_obs(), gen).empty());
}

TEST(Sdn, SteeringChangesEngineWorkloads) {
  // End-to-end: steering a flow shifts the load the analytic engine sees.
  nfvsim::OnvmController controller;
  controller.add_chain(nfvsim::standard_chain_nfs(0));
  controller.add_chain(nfvsim::standard_chain_nfs(1));
  std::vector<traffic::FlowSpec> flows;
  for (int i = 0; i < 2; ++i) {
    traffic::FlowSpec flow;
    flow.id = i;
    flow.pkt_bytes = 512;
    flow.mean_rate_pps = 5e5;
    flow.chain_index = 0;  // both on chain 0
    flows.push_back(flow);
  }
  nfvsim::AnalyticEngine engine(controller,
                                traffic::TrafficGenerator(flows, 5));
  const auto before = engine.run(2, 0.5);
  EXPECT_GT(before.chain_arrival_pps[0], before.chain_arrival_pps[1]);
  engine.generator().steer_flow(1, 1);
  const auto after = engine.run(2, 0.5);
  EXPECT_NEAR(after.chain_arrival_pps[0], after.chain_arrival_pps[1],
              after.chain_arrival_pps[0] * 0.5);
}

TEST(Sdn, ResetClearsHistory) {
  traffic::TrafficGenerator gen(skewed_flows(), 6);
  SdnController sdn;
  (void)sdn.rebalance(skewed_obs(), gen);
  EXPECT_EQ(sdn.rebalances_performed(), 1);
  sdn.reset();
  EXPECT_EQ(sdn.rebalances_performed(), 0);
  // And is immediately allowed to act again.
  EXPECT_FALSE(sdn.rebalance(skewed_obs(), gen).empty());
}

TEST(Sdn, RejectsBadConfig) {
  SdnConfig config;
  config.skew_threshold = 0.5;
  EXPECT_DEATH(SdnController{config}, "skew threshold");
}

}  // namespace
}  // namespace greennfv::core
