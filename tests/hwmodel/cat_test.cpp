#include "hwmodel/cat.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "hwmodel/node_spec.hpp"

namespace greennfv::hwmodel {
namespace {

/// The default node's allocatable ways: 20 LLC ways less 2 for DDIO.
constexpr int kWays = 18;

std::vector<int> partition(const std::vector<double>& fractions) {
  std::vector<int> ways(fractions.size());
  apportion_ways(fractions, kWays, ways);
  return ways;
}

TEST(Cat, PartitionUsesAllWays) {
  const NodeSpec spec;
  ASSERT_EQ(spec.llc_ways - spec.ddio_ways, kWays);
  const auto ways = partition({0.9, 0.1});
  EXPECT_EQ(std::accumulate(ways.begin(), ways.end(), 0), kWays);
  EXPECT_GT(ways[0], ways[1]);
  EXPECT_GE(ways[1], 1);  // floor of one way
}

class CatPartitions
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(CatPartitions, SumsToAllocatableAndRespectsFloor) {
  const auto ways = partition(GetParam());
  EXPECT_EQ(std::accumulate(ways.begin(), ways.end(), 0), kWays);
  for (const int w : ways) EXPECT_GE(w, 1);
}

INSTANTIATE_TEST_SUITE_P(
    PaperAllocations, CatPartitions,
    ::testing::Values(std::vector<double>{0.9, 0.1},
                      std::vector<double>{0.7, 0.3},
                      std::vector<double>{0.4, 0.6},
                      std::vector<double>{0.2, 0.8},
                      std::vector<double>{1.0, 1.0, 1.0},
                      std::vector<double>{0.5, 0.25, 0.125, 0.125}));

TEST(Cat, PartitionProportionality) {
  const auto ways = partition({0.9, 0.1});
  // 90/10 of 18 ways ~ 16/2.
  EXPECT_NEAR(ways[0], 16, 1);
  EXPECT_NEAR(ways[1], 2, 1);
}

TEST(Cat, PartitionErrors) {
  EXPECT_THROW(partition({}), std::invalid_argument);
  EXPECT_THROW(partition({-1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(partition({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(partition(std::vector<double>(19, 1.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace greennfv::hwmodel
