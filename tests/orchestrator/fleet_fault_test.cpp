#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "orchestrator/fault.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/presets.hpp"
#include "tests/support/fleet_reference.hpp"
#include "tests/support/timeline_text.hpp"

/// Fault-injection determinism suite. The contract mirrors the rest of
/// the fleet engine: the fault schedule is a pure function of the
/// scenario, fault-enabled histories are bit-identical across engines and
/// across rebuilds, and fault.enabled=0 leaves every fault-free history
/// byte-identical — faults draw from their own salted RNG stream, so
/// turning them off cannot perturb the arrival/holding/flow draws.

namespace greennfv::orchestrator {
namespace {

/// A fault-heavy dynamic fleet: enough crashes, rack outages, storms, and
/// recovery pressure that any engine divergence shows up in the history.
scenario::ScenarioSpec fault_spec(const std::string& policy,
                                  std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::preset("fault-smoke");
  spec.seed = seed;
  spec.num_nodes = 40;
  spec.fleet.policy = policy;
  spec.fleet.horizon_windows = 30;
  spec.fleet.arrival_rate = 6.0;
  spec.fleet.mean_holding_windows = 6.0;
  spec.fault.node_crash_rate = 0.4;
  spec.fault.rack_outage_rate = 0.1;
  spec.fault.rack_size = 4;
  spec.fault.mean_repair_windows = 3.0;
  spec.fault.wake_storm_prob = 0.2;
  return spec;
}

/// Same, with the fabric on and link failures firing: recovery must also
/// agree on re-routes, evictions, and failed-link energy.
scenario::ScenarioSpec link_fault_spec(const std::string& policy,
                                       std::uint64_t seed) {
  scenario::ScenarioSpec spec = fault_spec(policy, seed);
  spec.topology.enabled = true;
  spec.topology.preset = "leaf-spine";
  spec.topology.link_gbps = 8.0;
  spec.topology.core_gbps = 16.0;
  spec.latency_sla_us = 40.0;
  spec.fault.link_fail_rate = 0.3;
  return spec;
}

TEST(FleetFault, ScheduleIsPureFunctionOfScenario) {
  const scenario::ScenarioSpec spec = fault_spec("consolidate", 99);
  const FaultSchedule a = build_fault_schedule(spec, 30, spec.num_nodes, 0);
  const FaultSchedule b = build_fault_schedule(spec, 30, spec.num_nodes, 0);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  int crashes = 0;
  int repairs = 0;
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    ASSERT_EQ(a.windows[w].size(), b.windows[w].size()) << "window " << w;
    for (std::size_t i = 0; i < a.windows[w].size(); ++i) {
      EXPECT_TRUE(a.windows[w][i].kind == b.windows[w][i].kind &&
                  a.windows[w][i].target == b.windows[w][i].target)
          << "window " << w << " event " << i;
      if (a.windows[w][i].kind == FaultEvent::Kind::kNodeCrash) ++crashes;
      if (a.windows[w][i].kind == FaultEvent::Kind::kNodeRepair) ++repairs;
    }
  }
  EXPECT_EQ(a.wake_storm, b.wake_storm);
  // Totals agree with the expanded events, and the schedule actually
  // injects something at these rates.
  EXPECT_EQ(crashes, a.node_crashes);
  EXPECT_EQ(repairs, a.node_repairs);
  EXPECT_GT(a.node_crashes, 0);
  EXPECT_LE(a.node_repairs, a.node_crashes);
}

TEST(FleetFault, SameSeedFaultHistoryBitIdentical) {
  const scenario::ScenarioSpec spec = fault_spec("consolidate", 99);
  FleetOrchestrator a(spec);
  FleetOrchestrator b(spec);
  EXPECT_EQ(timeline_to_text(a.timeline(), spec.num_nodes),
            timeline_to_text(b.timeline(), spec.num_nodes));
  // The run must actually exercise crash, recovery, and storm machinery.
  EXPECT_GT(a.timeline().node_crashes, 0);
  EXPECT_GT(a.timeline().node_repairs, 0);
  EXPECT_GT(a.timeline().replaced, 0);
  EXPECT_GT(a.timeline().storm_windows, 0);
}

TEST(FleetFault, EventEngineMatchesReferenceWithFaults) {
  // Live engine equivalence with faults on, across every registry policy
  // and several seeds — the fault phase must interleave with departures,
  // arrivals, consolidation, and accounting identically on both engines.
  for (const std::string& policy : fleet_policy_names()) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const scenario::ScenarioSpec spec = fault_spec(policy, seed);
      FleetOrchestrator event_engine(spec);
      const FleetTimeline reference = build_reference_timeline(spec);
      EXPECT_EQ(timeline_to_text(event_engine.timeline(), spec.num_nodes),
                timeline_to_text(reference, spec.num_nodes))
          << "policy " << policy << " seed " << seed;
    }
  }
}

TEST(FleetFault, EventEngineMatchesReferenceWithLinkFailures) {
  // Same equivalence with the fabric on: link failures re-route or evict
  // riders, failed links leave routing and the energy sum, repairs bring
  // them back — identically on both engines, with every policy but
  // topology-aware-bestfit re-placing from the buckets on the engine side.
  for (const std::string& policy : fleet_policy_names()) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const scenario::ScenarioSpec spec = link_fault_spec(policy, seed);
      FleetOrchestrator event_engine(spec);
      const FleetTimeline reference = build_reference_timeline(spec);
      EXPECT_EQ(timeline_to_text(event_engine.timeline(), spec.num_nodes),
                timeline_to_text(reference, spec.num_nodes))
          << "policy " << policy << " seed " << seed;
      // At these rates the link-failure paths must actually fire.
      EXPECT_GT(event_engine.timeline().link_fails, 0)
          << "policy " << policy << " seed " << seed;
    }
  }
}

TEST(FleetFault, DisabledFaultsLeaveHistoryByteIdentical) {
  // fault.enabled=0 with every rate configured nonzero must produce the
  // exact bytes of the fault-free history: the fault stream is salted
  // separately, builds nothing when disabled, and every serializer block
  // is gated on fault_enabled. This is the guard that keeps all pre-fault
  // goldens valid forever.
  const scenario::ScenarioSpec plain = scenario::preset("fleet-smoke");
  scenario::ScenarioSpec armed = plain;
  armed.fault.node_crash_rate = 0.5;
  armed.fault.rack_outage_rate = 0.3;
  armed.fault.wake_storm_prob = 0.5;
  ASSERT_FALSE(armed.fault.enabled);
  FleetOrchestrator a(plain);
  FleetOrchestrator b(armed);
  EXPECT_EQ(timeline_to_text(a.timeline(), plain.num_nodes),
            timeline_to_text(b.timeline(), armed.num_nodes));
  EXPECT_FALSE(b.timeline().fault_enabled);
}

/// Byte-exact artifact serialization — same probe as fleet_determinism.
std::string artifacts_text(const campaign::CampaignReport& report) {
  std::string out;
  for (const campaign::RunResult& run : report.runs) {
    out += run.run_id + "\n";
    for (const scenario::ModelReport& model : run.report.models) {
      const core::EvalResult& r = model.result;
      out += model.prefix + " " + r.scheduler;
      for (const double v :
           {r.mean_gbps, r.mean_energy_j, r.mean_power_w,
            r.mean_efficiency, r.sla_satisfaction, r.drop_fraction}) {
        // Appended piecewise (GCC-12 -Wrestrict false positive on
        // "s" + std::string&&).
        out += ' ';
        out += double_bits(v);
      }
      out += "\n";
    }
    for (const std::string& name : run.report.series.series_names()) {
      const TimeSeries& series = run.report.series.series(name);
      out += name;
      for (std::size_t i = 0; i < series.size(); ++i) {
        out += ' ';
        out += double_bits(series.times()[i]);
        out += ':';
        out += double_bits(series.values()[i]);
      }
      out += "\n";
    }
  }
  return out;
}

TEST(FleetFault, FaultCampaignByteIdenticalAcrossJobCounts) {
  // A fault-enabled sweep (fault-smoke grid across policies and crash
  // rates) must produce identical bytes on one worker and eight — fault
  // expansion happens inside each run from its own seed, so parallel
  // interleavings cannot touch it.
  campaign::CampaignSpec spec;
  spec.name = "fleet-fault-determinism";
  spec.scenarios = {"fault-smoke"};
  spec.models = "baseline";
  spec.seeds = {1, 2};
  Config overrides;
  overrides.set("sweep.fleet.policy", "first-fit,consolidate");
  overrides.set("sweep.fault.node_crash_rate", "0.1,0.4");
  overrides.set("fleet.horizon", "6");
  spec.apply(overrides);

  campaign::CampaignRunner serial(spec);
  campaign::CampaignRunner parallel(spec);
  const campaign::CampaignReport a = serial.run(/*jobs=*/1);
  const campaign::CampaignReport b = parallel.run(/*jobs=*/8);
  EXPECT_EQ(a.executed, 8);
  EXPECT_EQ(a.failed, 0);
  EXPECT_EQ(artifacts_text(a), artifacts_text(b));
}

}  // namespace
}  // namespace greennfv::orchestrator
