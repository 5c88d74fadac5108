#include "nfvsim/controller.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/units.hpp"

namespace greennfv::nfvsim {
namespace {

TEST(Controller, AddChainAndDefaults) {
  OnvmController controller;
  const int idx = controller.add_chain({"firewall", "router", "ids"});
  EXPECT_EQ(idx, 0);
  EXPECT_EQ(controller.num_chains(), 1u);
  // Defaults are the baseline knobs.
  EXPECT_EQ(controller.knobs(0).batch, 2u);
  EXPECT_NEAR(controller.knobs(0).freq_ghz, 2.1, 1e-9);
}

TEST(Controller, UnknownNfLeavesTheControllerAsItWas) {
  OnvmController controller;
  controller.add_chain({"firewall"});
  EXPECT_THROW(controller.add_chain({"router", "nope"}),
               std::invalid_argument);
  ASSERT_EQ(controller.num_chains(), 1u);
  ASSERT_EQ(controller.profiles(0).size(), 1u);
  EXPECT_EQ(controller.profiles(0)[0].name, "firewall");
  EXPECT_EQ(controller.add_chain({"router"}), 1);
  EXPECT_EQ(controller.knobs(1).batch, 2u);
}

TEST(Controller, ApplyKnobsClampsAndSnaps) {
  OnvmController controller;
  controller.add_chain({"firewall"});
  ChainKnobs wild;
  wild.cores = 99.0;
  wild.freq_ghz = 1.77;         // not on the ladder
  wild.llc_fraction = 3.0;
  wild.dma_bytes = 1;           // below minimum
  wild.batch = 100000;
  const ChainKnobs applied = controller.apply_knobs(0, wild);
  EXPECT_NEAR(applied.cores, ChainKnobs::kMaxCores, 1e-9);
  EXPECT_NEAR(applied.freq_ghz, 1.8, 1e-9);  // snapped to ladder
  EXPECT_NEAR(applied.llc_fraction, 1.0, 1e-9);
  EXPECT_EQ(applied.dma_bytes, ChainKnobs::kMinDmaBytes);
  EXPECT_EQ(applied.batch, ChainKnobs::kMaxBatch);
  EXPECT_EQ(controller.knobs(0).batch, ChainKnobs::kMaxBatch);
}

TEST(Controller, DeploymentsMirrorKnobs) {
  OnvmController controller;
  controller.add_chain({"firewall", "nat"});
  controller.add_chain({"router"});
  ChainKnobs knobs;
  knobs.cores = 2.5;
  knobs.freq_ghz = 1.5;
  knobs.llc_fraction = 0.4;
  knobs.batch = 16;
  controller.apply_knobs(1, knobs);

  std::vector<hwmodel::ChainWorkload> loads(2);
  loads[0].offered_pps = 1e6;
  loads[0].pkt_bytes = 512;
  loads[1].offered_pps = 2e6;
  loads[1].pkt_bytes = 128;
  const auto deployments = controller.deployments(loads);
  ASSERT_EQ(deployments.size(), 2u);
  // Each chain's cost profiles, in chain order.
  ASSERT_EQ(controller.profiles(0).size(), 2u);
  EXPECT_EQ(controller.profiles(0)[0].name, "firewall");
  EXPECT_EQ(controller.profiles(0)[1].name, "nat");
  ASSERT_EQ(controller.profiles(1).size(), 1u);
  EXPECT_EQ(controller.profiles(1)[0].name, "router");
  ASSERT_EQ(deployments[0].nfs.size(), 2u);
  EXPECT_EQ(deployments[0].nfs[0].name, "firewall");
  EXPECT_EQ(deployments[0].nfs[1].name, "nat");
  ASSERT_EQ(deployments[1].nfs.size(), 1u);
  EXPECT_EQ(deployments[1].nfs[0].name, "router");
  EXPECT_NEAR(deployments[1].cores, 2.5, 1e-9);
  EXPECT_NEAR(deployments[1].freq_ghz, 1.5, 1e-9);
  EXPECT_EQ(deployments[1].batch, 16u);
  EXPECT_NEAR(deployments[1].workload.offered_pps, 2e6, 1e-6);
  // Hybrid mode -> not poll.
  EXPECT_FALSE(deployments[0].poll_mode);
}

TEST(Controller, PollModePropagates) {
  OnvmController controller(hwmodel::NodeSpec{}, SchedMode::kPoll);
  controller.add_chain({"firewall"});
  std::vector<hwmodel::ChainWorkload> loads(1);
  loads[0].offered_pps = 1e5;
  EXPECT_TRUE(controller.deployments(loads)[0].poll_mode);
  controller.set_sched_mode(SchedMode::kHybrid);
  EXPECT_FALSE(controller.deployments(loads)[0].poll_mode);
}

TEST(Controller, CatToggle) {
  OnvmController controller;
  EXPECT_TRUE(controller.use_cat());
  controller.set_use_cat(false);
  EXPECT_FALSE(controller.use_cat());
}

TEST(Controller, DeploymentsRejectWrongWorkloadCount) {
  OnvmController controller;
  controller.add_chain({"firewall"});
  EXPECT_DEATH((void)controller.deployments({}), "workload count");
}

TEST(Controller, SchedModeNames) {
  EXPECT_EQ(to_string(SchedMode::kPoll), "poll");
  EXPECT_EQ(to_string(SchedMode::kHybrid), "hybrid");
}

TEST(Knobs, BaselineMatchesAlgorithm1Defaults) {
  const ChainKnobs knobs = baseline_knobs(hwmodel::NodeSpec{});
  EXPECT_EQ(knobs.batch, 2u);                 // Algorithm 1 line 4
  EXPECT_NEAR(knobs.freq_ghz, 2.1, 1e-9);     // performance governor
}

TEST(Knobs, ToStringMentionsEveryKnob) {
  const ChainKnobs knobs = baseline_knobs(hwmodel::NodeSpec{});
  const std::string text = knobs.to_string();
  EXPECT_NE(text.find("cores"), std::string::npos);
  EXPECT_NE(text.find("freq"), std::string::npos);
  EXPECT_NE(text.find("llc"), std::string::npos);
  EXPECT_NE(text.find("dma"), std::string::npos);
  EXPECT_NE(text.find("batch"), std::string::npos);
}

}  // namespace
}  // namespace greennfv::nfvsim
