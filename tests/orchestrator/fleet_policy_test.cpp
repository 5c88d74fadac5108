#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "orchestrator/fleet_index.hpp"
#include "orchestrator/policy.hpp"
#include "scenario/scenario_spec.hpp"
#include "tests/support/placement_reference.hpp"

/// Placement-policy registry contract: each policy's choice on hand-built
/// fleet states, the consolidating policy's drain-or-nothing migration
/// plans, and registry name resolution (incl. the scenario-layer mirror
/// that lets campaign expansion validate fleet.policy up front). Every
/// case runs the shipped policy on a FleetIndex and its reference scan on
/// view_of() of that index, and expects the same answer from both.

namespace greennfv::orchestrator {
namespace {

/// The registry policy's choice, checked against its reference scan.
int choose(const std::string& policy, const FleetIndex& index,
           double cores) {
  const int chosen =
      make_fleet_policy(policy)->choose(index, {cores}, nullptr);
  EXPECT_EQ(make_reference_policy(policy)->choose(view_of(index), {cores},
                                                  nullptr),
            chosen)
      << policy << " asking " << cores << " cores";
  return chosen;
}

/// The registry policy's plan, checked against its reference scan.
std::vector<Migration> consolidate(const std::string& policy,
                                   const FleetIndex& index, double below) {
  std::vector<Migration> plan =
      make_fleet_policy(policy)->consolidate(index, below);
  const std::vector<Migration> scanned =
      make_reference_policy(policy)->consolidate(view_of(index), below);
  EXPECT_EQ(scanned.size(), plan.size()) << policy;
  for (std::size_t i = 0; i < std::min(plan.size(), scanned.size()); ++i) {
    EXPECT_EQ(scanned[i].chain, plan[i].chain) << policy << " move " << i;
    EXPECT_EQ(scanned[i].from, plan[i].from) << policy << " move " << i;
    EXPECT_EQ(scanned[i].to, plan[i].to) << policy << " move " << i;
  }
  return plan;
}

TEST(FleetPolicy, FirstFitPicksLowestIndexWithRoom) {
  FleetIndex index(3, 4.0);
  index.place_chain(0, 0, 3.0);
  EXPECT_EQ(choose("first-fit", index, 3.0), 1);   // node 0 is full
  EXPECT_EQ(choose("first-fit", index, 1.0), 0);   // but takes 1 core
  EXPECT_EQ(choose("first-fit", index, 5.0), -1);  // nothing fits 5
}

TEST(FleetPolicy, LeastLoadedSpreadsByUtilization) {
  FleetIndex index(3, 8.0);
  index.place_chain(0, 0, 4.0);
  index.place_chain(1, 1, 2.0);
  index.place_chain(2, 2, 6.0);
  EXPECT_EQ(choose("least-loaded", index, 2.0), 1);
  // Nodes without room are excluded even when emptiest-looking.
  index.place_chain(3, 1, 5.0);
  EXPECT_EQ(choose("least-loaded", index, 2.0), 0);
}

TEST(FleetPolicy, EnergyBestFitPacksTightAndAvoidsWaking) {
  FleetIndex index(3, 8.0);
  index.place_chain(0, 0, 2.0);
  index.place_chain(1, 1, 5.0);
  index.sleep(2);
  // Tightest fit: node 1 has 3 free vs node 0's 6 free.
  EXPECT_EQ(choose("energy-bestfit", index, 3.0), 1);
  // The sleeping empty node is never preferred while an awake node fits.
  EXPECT_EQ(choose("energy-bestfit", index, 6.0), 0);
  // ...but is woken when nothing awake has room.
  EXPECT_EQ(choose("energy-bestfit", index, 7.0), 2);
  index.wake(2);
  EXPECT_EQ(choose("energy-bestfit", index, 7.0), 2);
}

TEST(FleetPolicy, ConsolidateDrainsTheUnderutilizedNode) {
  FleetIndex index(3, 10.0);
  index.place_chain(0, 0, 5.0);
  index.place_chain(1, 0, 3.0);
  index.place_chain(2, 1, 2.0);
  // Node 1 sits at 20% < 35%; its single chain fits on node 0.
  const auto plan = consolidate("consolidate", index, 0.35);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].chain, 2);
  EXPECT_EQ(plan[0].from, 1);
  EXPECT_EQ(plan[0].to, 0);
}

TEST(FleetPolicy, ConsolidateIsDrainOrNothing) {
  FleetIndex index(2, 10.0);
  index.place_chain(0, 0, 9.0);
  index.place_chain(1, 1, 2.0);
  index.place_chain(2, 1, 1.0);
  // Node 1 is underutilized but only one of its two chains would fit on
  // node 0 — a partial move saves nothing, so nothing moves.
  EXPECT_TRUE(consolidate("consolidate", index, 0.35).empty());
  // Make room and the whole node drains.
  index.remove_chain(0);
  index.place_chain(0, 0, 6.0);
  const auto plan = consolidate("consolidate", index, 0.35);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].from, 1);
  EXPECT_EQ(plan[1].from, 1);
}

TEST(FleetPolicy, ConsolidateNeverWakesOrTargetsEmptyNodes) {
  FleetIndex index(3, 10.0);
  index.place_chain(0, 0, 1.0);
  index.sleep(2);
  // The only donor's chain has nowhere occupied to go: no plan — in
  // particular not onto the idle node 1 or the sleeping node 2.
  EXPECT_TRUE(consolidate("consolidate", index, 0.5).empty());
}

TEST(FleetPolicy, NonConsolidatingPoliciesNeverMigrate) {
  FleetIndex index(2, 10.0);
  index.place_chain(0, 0, 8.0);
  index.place_chain(1, 1, 1.0);
  for (const char* name : {"first-fit", "least-loaded", "energy-bestfit",
                           "topology-aware-bestfit"}) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(consolidate(name, index, 0.9).empty());
  }
}

TEST(FleetPolicy, RegistryResolvesEveryNameAndRejectsTypos) {
  for (const std::string& name : fleet_policy_names()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(make_fleet_policy(name)->name(), name);
    EXPECT_EQ(make_reference_policy(name)->name(), name);
  }
  EXPECT_THROW((void)make_fleet_policy("best-fit"), std::invalid_argument);
  EXPECT_THROW((void)make_fleet_policy(""), std::invalid_argument);
  EXPECT_THROW((void)make_reference_policy("best-fit"),
               std::invalid_argument);
}

TEST(FleetPolicy, ScenarioLayerMirrorsTheRegistryNames) {
  // scenario::FleetSpec validates fleet.policy before anything runs; the
  // two name lists must stay in lockstep.
  EXPECT_EQ(scenario::FleetSpec::policy_names(), fleet_policy_names());
}

}  // namespace
}  // namespace greennfv::orchestrator
