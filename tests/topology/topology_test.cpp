#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace greennfv::topology {
namespace {

TopologySpec spec_for(const std::string& preset) {
  TopologySpec spec;
  spec.enabled = true;
  spec.preset = preset;
  return spec;
}

TEST(Topology, SingleRackIsOneSwitchWithOneLinkPerHost) {
  const Topology t = Topology::build(spec_for("single-rack"), 5);
  EXPECT_EQ(t.num_hosts(), 5);
  EXPECT_EQ(t.num_switches(), 1);
  EXPECT_EQ(t.num_links(), 5);
  EXPECT_EQ(t.ingress(), 5);  // the ToR, first vertex after the hosts
  for (int h = 0; h < 5; ++h) EXPECT_EQ(t.adjacency(h).size(), 1u);
}

TEST(Topology, LeafSpineCountsMatchTheGeometry) {
  TopologySpec spec = spec_for("leaf-spine");
  spec.hosts_per_leaf = 2;
  spec.spines = 3;
  const Topology t = Topology::build(spec, 5);
  // ceil(5/2)=3 leaves + 3 spines + gateway.
  EXPECT_EQ(t.num_switches(), 7);
  // 5 host links + 3x3 leaf-spine + 3 gateway-spine.
  EXPECT_EQ(t.num_links(), 17);
  // Every host path is exactly 3 hops: host-leaf, leaf-spine,
  // spine-gateway.
  EXPECT_EQ(t.ingress(), t.num_vertices() - 1);
}

TEST(Topology, FatTreeCountsMatchTheGeometry) {
  TopologySpec spec = spec_for("fat-tree");
  spec.fat_k = 4;
  // k=4: 16-host capacity, 2 pods needed for 8 hosts.
  const Topology t = Topology::build(spec, 8);
  // 2 pods x (2 edge + 2 agg) + 4 cores + gateway.
  EXPECT_EQ(t.num_switches(), 13);
  // 8 host + 2x(2x2) edge-agg + 2x(2x2) agg-core + 4 gateway-core.
  EXPECT_EQ(t.num_links(), 28);
}

TEST(Topology, FatTreeRejectsMoreHostsThanItsCapacity) {
  TopologySpec spec = spec_for("fat-tree");
  spec.fat_k = 2;  // capacity k^3/4 = 2
  EXPECT_THROW(Topology::build(spec, 3), std::invalid_argument);
  EXPECT_NO_THROW(Topology::build(spec, 2));
}

TEST(Topology, FatTreeCapacityCheckDoesNotOverflowInt) {
  // k^3/4 overflows int from k = 1291 and the build's (k/2)^2 from
  // k = 92682; fat_k stops at 128, where the fit check is exact (this
  // suite runs under UBSan in scripts/ci.sh).
  TopologySpec spec = spec_for("fat-tree");
  spec.fat_k = 128;  // 524,288 hosts
  EXPECT_NO_THROW(validate_spec(spec, 3));
  EXPECT_NO_THROW(validate_spec(spec, 524288));
  EXPECT_THROW(validate_spec(spec, 524289), std::invalid_argument);
  spec.fat_k = 1300;
  EXPECT_THROW(validate_spec(spec, 3), std::invalid_argument);
  spec.fat_k = 2048;
  EXPECT_THROW(validate_spec(spec, std::numeric_limits<int>::max()),
               std::invalid_argument);
  spec.fat_k = std::numeric_limits<int>::max() - 1;
  EXPECT_THROW(validate_spec(spec, std::numeric_limits<int>::max()),
               std::invalid_argument);
}

TEST(Topology, EdgeCoreGatewayHangsOffCoreZeroOnly) {
  TopologySpec spec = spec_for("edge-core");
  spec.hosts_per_leaf = 2;
  spec.spines = 2;
  const Topology t = Topology::build(spec, 6);
  // 3 edges + 2 cores + gateway; gateway has exactly one link.
  EXPECT_EQ(t.num_switches(), 6);
  EXPECT_EQ(t.adjacency(t.ingress()).size(), 1u);
}

TEST(Topology, ConstructionIsDeterministic) {
  for (const std::string& preset : TopologySpec::preset_names()) {
    TopologySpec spec = spec_for(preset);
    const Topology a = Topology::build(spec, 7);
    const Topology b = Topology::build(spec, 7);
    ASSERT_EQ(a.num_links(), b.num_links()) << preset;
    for (int l = 0; l < a.num_links(); ++l) {
      EXPECT_EQ(a.links()[static_cast<std::size_t>(l)].a,
                b.links()[static_cast<std::size_t>(l)].a)
          << preset;
      EXPECT_EQ(a.links()[static_cast<std::size_t>(l)].b,
                b.links()[static_cast<std::size_t>(l)].b)
          << preset;
    }
  }
}

TEST(Topology, EveryPresetReachesEveryHost) {
  for (const std::string& preset : TopologySpec::preset_names()) {
    for (int hosts : {1, 3, 8}) {
      TopologySpec spec = spec_for(preset);
      if (preset == "fat-tree") spec.fat_k = 4;  // capacity 16
      EXPECT_NO_THROW(Topology::build(spec, hosts))
          << preset << " hosts=" << hosts;
    }
  }
}

TEST(Topology, ValidateRejectsUnknownNamesAndBadNumerics) {
  TopologySpec spec;
  spec.preset = "mesh";
  EXPECT_THROW(validate_spec(spec, 3), std::invalid_argument);
  spec = TopologySpec{};
  spec.routing = "ecmp";
  EXPECT_THROW(validate_spec(spec, 3), std::invalid_argument);
  spec = TopologySpec{};
  spec.link_gbps = 0.0;
  EXPECT_THROW(validate_spec(spec, 3), std::invalid_argument);
  spec = TopologySpec{};
  spec.fat_k = 3;  // odd
  EXPECT_THROW(validate_spec(spec, 3), std::invalid_argument);
  spec = TopologySpec{};
  spec.link_nj_per_bit = -0.1;
  EXPECT_THROW(validate_spec(spec, 3), std::invalid_argument);
  // Disabled specs still name-check (campaign cells fail at expansion)…
  spec = TopologySpec{};
  spec.enabled = false;
  spec.preset = "tor-mesh";
  EXPECT_THROW(validate_spec(spec, 3), std::invalid_argument);
  // …but the capacity-fit check binds only when enabled.
  spec = TopologySpec{};
  spec.preset = "fat-tree";
  spec.fat_k = 2;
  spec.enabled = false;
  EXPECT_NO_THROW(validate_spec(spec, 100));
  spec.enabled = true;
  EXPECT_THROW(validate_spec(spec, 100), std::invalid_argument);
}

TEST(Topology, CustomBuilderChecksEndpointsAndReachability) {
  Topology t(2);
  EXPECT_THROW(t.add_link(0, 0, 10, 1, 1, 0.1), std::invalid_argument);
  EXPECT_THROW(t.add_link(0, 9, 10, 1, 1, 0.1), std::invalid_argument);
  EXPECT_THROW(t.check(), std::invalid_argument);  // no ingress yet
  const int sw = t.add_switch();
  t.set_ingress(sw);
  t.add_link(0, sw, 10, 1, 1, 0.1);
  EXPECT_THROW(t.check(), std::invalid_argument);  // host 1 unreachable
  t.add_link(1, sw, 10, 1, 1, 0.1);
  EXPECT_NO_THROW(t.check());
}

TEST(Topology, QuantizationIsExact) {
  EXPECT_EQ(kbps_from_gbps(40.0), 40'000'000);
  EXPECT_EQ(kbps_from_gbps(0.0005), 500);
  EXPECT_EQ(ns_from_us(5.0), 5'000);
  EXPECT_EQ(ns_from_us(0.25), 250);
}

}  // namespace
}  // namespace greennfv::topology
