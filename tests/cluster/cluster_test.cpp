#include <gtest/gtest.h>

#include <stdexcept>

#include "cluster/placement.hpp"

namespace greennfv::cluster {
namespace {

std::vector<ChainDemand> demands() {
  return {{"a", 3.0, 4.0}, {"b", 2.0, 3.0}, {"c", 2.0, 3.0},
          {"d", 1.0, 1.0}};
}

TEST(Placement, FirstFitPacksTight) {
  const std::vector<NodeCapacity> nodes = {{4.0}, {4.0}, {4.0}};
  const Placement p = place_chains(demands(), nodes,
                                   PlacementPolicy::kFirstFitDecreasing);
  // FFD: 3 -> node0; 2 -> node1; 2 -> node1 (fits 4); 1 -> node0.
  EXPECT_EQ(p.node_of(0), 0);
  EXPECT_EQ(p.node_of(1), 1);
  EXPECT_EQ(p.node_of(2), 1);
  EXPECT_EQ(p.node_of(3), 0);
  EXPECT_DOUBLE_EQ(p.node_cores[0], 4.0);
  EXPECT_DOUBLE_EQ(p.node_cores[1], 4.0);
  EXPECT_DOUBLE_EQ(p.node_cores[2], 0.0);
}

TEST(Placement, LeastLoadedSpreads) {
  const std::vector<NodeCapacity> nodes = {{8.0}, {8.0}, {8.0}};
  const Placement p =
      place_chains(demands(), nodes, PlacementPolicy::kLeastLoaded);
  // Every node receives work.
  for (const double cores : p.node_cores) EXPECT_GT(cores, 0.0);
  EXPECT_LT(imbalance(p), 1.5);
}

TEST(Placement, BalanceBeatsPackingOnImbalance) {
  const std::vector<NodeCapacity> nodes = {{16.0}, {16.0}, {16.0}};
  const Placement packed = place_chains(
      demands(), nodes, PlacementPolicy::kFirstFitDecreasing);
  const Placement spread =
      place_chains(demands(), nodes, PlacementPolicy::kLeastLoaded);
  EXPECT_LE(imbalance(spread), imbalance(packed) + 1e-9);
}

TEST(Placement, ThrowsWhenNothingFits) {
  const std::vector<NodeCapacity> nodes = {{2.0}};
  EXPECT_THROW(place_chains(demands(), nodes,
                            PlacementPolicy::kFirstFitDecreasing),
               std::invalid_argument);
}

TEST(Placement, EnergyBestFitConcentratesLoad) {
  const std::vector<NodeCapacity> nodes = {{8.0}, {8.0}, {8.0}};
  // 3+2+2+1 = 8 cores: best-fit packs everything onto one node and the
  // other two stay empty (free to idle or sleep).
  const Placement p =
      place_chains(demands(), nodes, PlacementPolicy::kEnergyBestFit);
  int used = 0;
  for (const double cores : p.node_cores)
    if (cores > 0.0) ++used;
  EXPECT_EQ(used, 1);
  EXPECT_DOUBLE_EQ(p.node_cores[0], 8.0);
}

TEST(Placement, EnergyBestFitPrefersTheTightestSlot) {
  // Heaviest-first: a(3) -> node1 (slack 2 beats 3 and 5), b(2) fills
  // node1 exactly (slack 0), c(2) and d(1) land on node0 — node2, the
  // roomiest, never hosts anything.
  const std::vector<NodeCapacity> nodes = {{6.0}, {5.0}, {8.0}};
  const Placement p =
      place_chains(demands(), nodes, PlacementPolicy::kEnergyBestFit);
  EXPECT_EQ(p.node_of(0), 1);
  EXPECT_EQ(p.node_of(1), 1);
  EXPECT_DOUBLE_EQ(p.node_cores[1], 5.0);
  EXPECT_DOUBLE_EQ(p.node_cores[0], 3.0);
  EXPECT_DOUBLE_EQ(p.node_cores[2], 0.0);
}

// --- the place_chains edge-case contract ------------------------------------

TEST(Placement, ChainLargerThanEveryNodeIsAClearError) {
  const std::vector<ChainDemand> big = {{"giant", 20.0, 5.0}};
  const std::vector<NodeCapacity> nodes = {{14.0}, {14.0}, {14.0}};
  for (const auto policy :
       {PlacementPolicy::kFirstFitDecreasing, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kEnergyBestFit}) {
    SCOPED_TRACE(to_string(policy));
    try {
      (void)place_chains(big, nodes, policy);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("giant"), std::string::npos);
    }
  }
}

TEST(Placement, ZeroCapacityNodeInRosterIsAClearError) {
  // A zero-capacity roster entry used to feed 0/0 into the load ratio —
  // now it is rejected up front, naming the node.
  const std::vector<NodeCapacity> nodes = {{8.0}, {0.0}, {8.0}};
  for (const auto policy :
       {PlacementPolicy::kFirstFitDecreasing, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kEnergyBestFit}) {
    SCOPED_TRACE(to_string(policy));
    try {
      (void)place_chains(demands(), nodes, policy);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos);
    }
  }
  const std::vector<NodeCapacity> negative = {{8.0}, {-2.0}};
  EXPECT_THROW(
      place_chains(demands(), negative, PlacementPolicy::kLeastLoaded),
      std::invalid_argument);
}

TEST(Placement, EmptyFleetIsAClearError) {
  try {
    (void)place_chains(demands(), {}, PlacementPolicy::kLeastLoaded);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty fleet"), std::string::npos);
  }
}

TEST(Placement, ValidatesInputs) {
  EXPECT_THROW(place_chains({}, {{4.0}},
                            PlacementPolicy::kLeastLoaded),
               std::invalid_argument);
  EXPECT_THROW(place_chains(demands(), {},
                            PlacementPolicy::kLeastLoaded),
               std::invalid_argument);
  std::vector<ChainDemand> bad = {{"x", 0.0, 1.0}};
  EXPECT_THROW(place_chains(bad, {{4.0}},
                            PlacementPolicy::kLeastLoaded),
               std::invalid_argument);
}

TEST(Placement, PolicyNames) {
  EXPECT_EQ(to_string(PlacementPolicy::kFirstFitDecreasing),
            "first-fit-decreasing");
  EXPECT_EQ(to_string(PlacementPolicy::kLeastLoaded), "least-loaded");
  EXPECT_EQ(to_string(PlacementPolicy::kEnergyBestFit), "energy-bestfit");
}

}  // namespace
}  // namespace greennfv::cluster
