#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/fleet_index.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"
#include "telemetry/metrics.hpp"
#include "tests/support/fleet_reference.hpp"
#include "tests/support/timeline_text.hpp"

/// Topology-enabled fleet equivalence: with the network fabric switched on
/// the indexed window-loop engine must still reproduce the
/// window-synchronous reference bit-for-bit — path admission, link release
/// order, migration vetoes, and link-energy accounting all have to agree
/// across every registry policy, preset, and routing mode. The policies
/// that ignore the network answer from the index's buckets on the engine
/// side and from linear scans on the reference side.

namespace greennfv::orchestrator {
namespace {

scenario::ScenarioSpec topo_spec(const std::string& policy,
                                 std::uint64_t seed,
                                 const std::string& preset = "leaf-spine",
                                 const std::string& routing = "shortest") {
  scenario::ScenarioSpec spec = scenario::preset("fleet-smoke");
  spec.seed = seed;
  spec.num_nodes = 24;
  spec.fleet.arrival_rate = 6.0;
  spec.fleet.policy = policy;
  spec.fleet.horizon_windows = 20;
  spec.fleet.mean_holding_windows = 5.0;
  spec.topology.enabled = true;
  spec.topology.preset = preset;
  spec.topology.routing = routing;
  return spec;
}

TEST(FleetTopology, EventEngineMatchesReferenceAcrossPolicies) {
  for (const std::string& policy : fleet_policy_names()) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const scenario::ScenarioSpec spec = topo_spec(policy, seed);
      FleetOrchestrator event_engine(spec);
      const FleetTimeline reference = build_reference_timeline(spec);
      EXPECT_EQ(timeline_to_text(event_engine.timeline(), spec.num_nodes),
                timeline_to_text(reference, spec.num_nodes))
          << "policy " << policy << " seed " << seed;
      EXPECT_TRUE(event_engine.timeline().topology_enabled);
      EXPECT_GT(event_engine.timeline().routed_chain_windows, 0);
    }
  }
}

TEST(FleetTopology, NetworkBlindPoliciesAnswerFromTheBucketsOnAFabric) {
  // Only topology-aware-bestfit reads the fabric, so only it walks every
  // node per placement query; the others touch at most one bucket entry
  // per occupancy level, fabric or not.
  namespace mc = telemetry::metrics;
  mc::set_enabled(true);
  for (const std::string& policy : fleet_policy_names()) {
    const scenario::ScenarioSpec spec = topo_spec(policy, 7);
    const FleetIndex index(spec.num_nodes, spec.node.total_cores -
                                               spec.node.controller_cores);
    mc::reset();
    const FleetOrchestrator fleet(spec);
    const double queries =
        static_cast<double>(mc::counter("fleet.placement.queries").value());
    ASSERT_GT(queries, 0.0) << policy;
    const double per_query =
        static_cast<double>(
            mc::counter("fleet.placement.candidates_scanned").value()) /
        queries;
    if (policy == "topology-aware-bestfit") {
      EXPECT_EQ(per_query, static_cast<double>(spec.num_nodes));
    } else {
      EXPECT_LE(per_query, index.awake_levels().num_levels()) << policy;
    }
  }
  mc::set_enabled(false);
  mc::reset();
}

TEST(FleetTopology, EventEngineMatchesReferenceAcrossPresetsAndRouting) {
  for (const std::string& preset : topology::TopologySpec::preset_names()) {
    for (const std::string& routing :
         topology::TopologySpec::routing_names()) {
      scenario::ScenarioSpec spec =
          topo_spec("topology-aware-bestfit", 7, preset, routing);
      spec.num_nodes = 16;  // fat-tree fat_k=4 attaches at most 16 hosts
      FleetOrchestrator event_engine(spec);
      const FleetTimeline reference = build_reference_timeline(spec);
      EXPECT_EQ(timeline_to_text(event_engine.timeline(), spec.num_nodes),
                timeline_to_text(reference, spec.num_nodes))
          << preset << "/" << routing;
    }
  }
}

TEST(FleetTopology, TightFabricRejectsOversubscribedPlacements) {
  // Starve the fabric: host uplinks far below a single chain's offered
  // load, so every placement the policy proposes is net-infeasible.
  scenario::ScenarioSpec spec = topo_spec("energy-bestfit", 11);
  spec.topology.link_gbps = 0.05;
  spec.topology.core_gbps = 0.05;
  FleetOrchestrator event_engine(spec);
  const FleetTimeline reference = build_reference_timeline(spec);
  EXPECT_EQ(timeline_to_text(event_engine.timeline(), spec.num_nodes),
            timeline_to_text(reference, spec.num_nodes));
  EXPECT_GT(event_engine.timeline().net_rejected, 0);
  // A net-rejected chain never lands, so it can never be routed either.
  EXPECT_EQ(event_engine.timeline().routed_chain_windows, 0);
}

TEST(FleetTopology, LatencyBudgetGatesTheSlaColumn) {
  // edge-core paths cross several 10 us core links; a 5 us budget is
  // unsatisfiable, a 10 ms budget trivially holds.
  scenario::ScenarioSpec tight = topo_spec("energy-bestfit", 3, "edge-core");
  tight.latency_sla_us = 5.0;
  scenario::ScenarioSpec loose = tight;
  loose.latency_sla_us = 10'000.0;

  FleetOrchestrator tight_fleet(tight);
  FleetOrchestrator loose_fleet(loose);
  EXPECT_GT(tight_fleet.timeline().latency_violation_chain_windows, 0);
  EXPECT_EQ(loose_fleet.timeline().latency_violation_chain_windows, 0);

  const FleetReport tight_report =
      tight_fleet.run(scenario::default_roster(tight));
  const FleetReport loose_report =
      loose_fleet.run(scenario::default_roster(loose));
  EXPECT_LT(tight_report.latency_sla_satisfaction, 1.0);
  EXPECT_EQ(loose_report.latency_sla_satisfaction, 1.0);
  EXPECT_TRUE(tight_report.topology_enabled);
  EXPECT_GT(tight_report.link_energy_j, 0.0);
  EXPECT_GT(tight_report.mean_path_latency_us, 0.0);
}

TEST(FleetTopology, DisabledTopologyIsBitIdenticalToThePreTopologyEngine) {
  // topology.enabled=0 must leave the dynamics untouched: an explicit
  // disabled-topology spec and the untouched preset serialize identically.
  scenario::ScenarioSpec plain = scenario::preset("fleet-smoke");
  plain.seed = 5;
  scenario::ScenarioSpec annotated = plain;
  annotated.topology.preset = "fat-tree";  // inert while disabled
  annotated.topology.link_gbps = 0.001;
  FleetOrchestrator a(plain);
  FleetOrchestrator b(annotated);
  EXPECT_EQ(timeline_to_text(a.timeline(), plain.num_nodes),
            timeline_to_text(b.timeline(), annotated.num_nodes));
  EXPECT_FALSE(a.timeline().topology_enabled);
  EXPECT_EQ(a.timeline().net_rejected, 0);
  EXPECT_EQ(a.timeline().link_energy_j, 0.0);
}

/// Byte-exact serialization of a campaign's run artifacts (results and
/// every telemetry sample, raw IEEE-754 bits included).
std::string campaign_artifacts_text(const campaign::CampaignReport& report) {
  std::string out;
  for (const campaign::RunResult& run : report.runs) {
    out += run.run_id + "\n";
    for (const scenario::ModelReport& model : run.report.models) {
      const core::EvalResult& r = model.result;
      out += model.prefix + " " + r.scheduler;
      for (const double v :
           {r.mean_gbps, r.mean_energy_j, r.mean_power_w, r.mean_efficiency,
            r.sla_satisfaction, r.drop_fraction}) {
        out += " " + double_bits(v);
      }
      out += "\n";
    }
    for (const std::string& name : run.report.series.series_names()) {
      const TimeSeries& series = run.report.series.series(name);
      out += name;
      for (std::size_t i = 0; i < series.size(); ++i) {
        out += " " + double_bits(series.times()[i]) + ":" +
               double_bits(series.values()[i]);
      }
      out += "\n";
    }
  }
  return out;
}

TEST(FleetTopology, CampaignWithTopologyCellsIsByteIdenticalAcrossJobs) {
  campaign::CampaignSpec spec;
  spec.name = "topology-determinism";
  spec.scenarios = {"fleet-smoke"};
  spec.models = "baseline";
  spec.seeds = {1};
  Config overrides;
  overrides.set("topology.enabled", "1");
  overrides.set("sla.latency", "40");
  overrides.set("sweep.topology.preset", "single-rack,leaf-spine");
  overrides.set("sweep.fleet.policy", "energy-bestfit,topology-aware-bestfit");
  overrides.set("fleet.horizon", "6");
  spec.apply(overrides);

  campaign::CampaignRunner serial(spec);
  campaign::CampaignRunner parallel(spec);
  const campaign::CampaignReport a = serial.run(/*jobs=*/1);
  const campaign::CampaignReport b = parallel.run(/*jobs=*/8);
  EXPECT_EQ(a.executed, 4);
  EXPECT_EQ(campaign_artifacts_text(a), campaign_artifacts_text(b));
}

}  // namespace
}  // namespace greennfv::orchestrator
