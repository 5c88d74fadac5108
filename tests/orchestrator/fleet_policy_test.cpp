#include <gtest/gtest.h>

#include "orchestrator/policy.hpp"
#include "scenario/scenario_spec.hpp"

/// Placement-policy registry contract: each policy's choice on hand-built
/// fleet rosters, the consolidating policy's drain-or-nothing migration
/// plans, and registry name resolution (incl. the scenario-layer mirror
/// that lets campaign expansion validate fleet.policy up front).

namespace greennfv::orchestrator {
namespace {

NodeView node(double capacity, double committed, bool asleep = false) {
  NodeView view;
  view.capacity_cores = capacity;
  view.committed_cores = committed;
  view.asleep = asleep;
  return view;
}

/// Adds a hosted chain (id, cores) and bumps the commitment.
void host(NodeView& view, int id, double cores, double gbps = 1.0) {
  view.chains.push_back({id, cores, gbps});
}

TEST(FleetPolicy, FirstFitPicksLowestIndexWithRoom) {
  FleetView view;
  view.nodes = {node(4.0, 3.0), node(4.0, 0.0), node(4.0, 0.0)};
  const auto policy = make_fleet_policy("first-fit");
  EXPECT_EQ(policy->choose(view, {3.0}, nullptr), 1);  // node 0 is full
  EXPECT_EQ(policy->choose(view, {1.0}, nullptr), 0);  // but takes 1 core
  EXPECT_EQ(policy->choose(view, {5.0}, nullptr), -1);  // nothing fits 5
}

TEST(FleetPolicy, LeastLoadedSpreadsByUtilization) {
  FleetView view;
  view.nodes = {node(8.0, 4.0), node(8.0, 2.0), node(8.0, 6.0)};
  const auto policy = make_fleet_policy("least-loaded");
  EXPECT_EQ(policy->choose(view, {2.0}, nullptr), 1);
  // Nodes without room are excluded even when emptiest-looking.
  view.nodes[1].committed_cores = 7.5;
  EXPECT_EQ(policy->choose(view, {2.0}, nullptr), 0);
}

TEST(FleetPolicy, EnergyBestFitPacksTightAndAvoidsWaking) {
  FleetView view;
  view.nodes = {node(8.0, 2.0), node(8.0, 5.0), node(8.0, 0.0, true)};
  const auto policy = make_fleet_policy("energy-bestfit");
  // Tightest fit: node 1 has 3 free vs node 0's 6 free.
  EXPECT_EQ(policy->choose(view, {3.0}, nullptr), 1);
  // The sleeping empty node is never preferred while an awake node fits.
  EXPECT_EQ(policy->choose(view, {6.0}, nullptr), 0);
  // ...but is woken when nothing awake has room.
  EXPECT_EQ(policy->choose(view, {7.0}, nullptr), 2);
  view.nodes[2].asleep = false;
  EXPECT_EQ(policy->choose(view, {7.0}, nullptr), 2);
}

TEST(FleetPolicy, ConsolidateDrainsTheUnderutilizedNode) {
  FleetView view;
  view.nodes = {node(10.0, 8.0), node(10.0, 2.0), node(10.0, 0.0)};
  host(view.nodes[0], 0, 5.0);
  host(view.nodes[0], 1, 3.0);
  host(view.nodes[1], 2, 2.0);
  const auto policy = make_fleet_policy("consolidate");
  // Node 1 sits at 20% < 35%; its single chain fits on node 0.
  const auto plan = policy->consolidate(view, 0.35);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].chain, 2);
  EXPECT_EQ(plan[0].from, 1);
  EXPECT_EQ(plan[0].to, 0);
}

TEST(FleetPolicy, ConsolidateIsDrainOrNothing) {
  FleetView view;
  view.nodes = {node(10.0, 9.0), node(10.0, 3.0)};
  host(view.nodes[0], 0, 9.0);
  host(view.nodes[1], 1, 2.0);
  host(view.nodes[1], 2, 1.0);
  const auto policy = make_fleet_policy("consolidate");
  // Node 1 is underutilized but only one of its two chains would fit on
  // node 0 — a partial move saves nothing, so nothing moves.
  EXPECT_TRUE(policy->consolidate(view, 0.35).empty());
  // Make room and the whole node drains.
  view.nodes[0].committed_cores = 6.0;
  const auto plan = policy->consolidate(view, 0.35);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].from, 1);
  EXPECT_EQ(plan[1].from, 1);
}

TEST(FleetPolicy, ConsolidateNeverWakesOrTargetsEmptyNodes) {
  FleetView view;
  view.nodes = {node(10.0, 1.0), node(10.0, 0.0), node(10.0, 0.0, true)};
  host(view.nodes[0], 0, 1.0);
  const auto policy = make_fleet_policy("consolidate");
  // The only donor's chain has nowhere occupied to go: no plan — in
  // particular not onto the idle node 1 or the sleeping node 2.
  EXPECT_TRUE(policy->consolidate(view, 0.5).empty());
}

TEST(FleetPolicy, NonConsolidatingPoliciesNeverMigrate) {
  FleetView view;
  view.nodes = {node(10.0, 8.0), node(10.0, 1.0)};
  host(view.nodes[0], 0, 8.0);
  host(view.nodes[1], 1, 1.0);
  for (const char* name : {"first-fit", "least-loaded", "energy-bestfit"}) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(make_fleet_policy(name)->consolidate(view, 0.9).empty());
  }
}

TEST(FleetPolicy, RegistryResolvesEveryNameAndRejectsTypos) {
  for (const std::string& name : fleet_policy_names()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(make_fleet_policy(name)->name(), name);
  }
  EXPECT_THROW((void)make_fleet_policy("best-fit"), std::invalid_argument);
  EXPECT_THROW((void)make_fleet_policy(""), std::invalid_argument);
}

TEST(FleetPolicy, ScenarioLayerMirrorsTheRegistryNames) {
  // scenario::FleetSpec validates fleet.policy before anything runs; the
  // two name lists must stay in lockstep.
  EXPECT_EQ(scenario::FleetSpec::policy_names(), fleet_policy_names());
}

}  // namespace
}  // namespace greennfv::orchestrator
