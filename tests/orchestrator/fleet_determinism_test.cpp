#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/presets.hpp"
#include "tests/support/fleet_reference.hpp"
#include "tests/support/timeline_text.hpp"

/// Determinism stress for the indexed window-loop fleet engine, at a
/// scale no golden file could pin (the serialized history would be
/// megabytes): a randomized 200-node fleet built twice from the same seed
/// is bit-identical; the indexed engine reproduces the window-synchronous
/// reference engine bit-for-bit across policies and seeds; and a fleet
/// campaign's artifacts are byte-identical whether the sweep ran on one
/// worker or eight, on a fleet narrow enough to replay inline and on one
/// wide enough to replay its nodes in parallel.

namespace greennfv::orchestrator {
namespace {

scenario::ScenarioSpec stress_spec(int nodes, double arrival_rate,
                                   const std::string& policy,
                                   std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::preset("fleet-smoke");
  spec.seed = seed;
  spec.num_nodes = nodes;
  spec.fleet.arrival_rate = arrival_rate;
  spec.fleet.policy = policy;
  spec.fleet.horizon_windows = 30;
  spec.fleet.mean_holding_windows = 6.0;
  return spec;
}

TEST(FleetDeterminism, TwoHundredNodeFleetSameSeedBitIdentical) {
  // ~1200 arrivals over 200 nodes with consolidation and power gating:
  // enough churn that any nondeterminism (iteration order, uninitialized
  // state, allocator-address dependence) diverges the serialized history.
  const scenario::ScenarioSpec spec =
      stress_spec(200, 40.0, "consolidate", 99);
  FleetOrchestrator a(spec);
  FleetOrchestrator b(spec);
  const std::string text_a = timeline_to_text(a.timeline(), spec.num_nodes);
  EXPECT_EQ(text_a, timeline_to_text(b.timeline(), spec.num_nodes));
  // The run must actually exercise the dynamic machinery.
  EXPECT_GT(a.timeline().arrivals, 1000);
  EXPECT_GT(a.timeline().departures, 0);
  EXPECT_GT(a.timeline().migrations, 0);
  EXPECT_GT(a.timeline().wakeups, 0);
}

TEST(FleetDeterminism, EventEngineMatchesReferenceEngineAcrossPolicies) {
  // Live equivalence against the preserved window-synchronous builder —
  // the same proof the golden files pin, but at 200 nodes x 30 windows
  // and across every registry policy and several seeds.
  for (const std::string& policy : fleet_policy_names()) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const scenario::ScenarioSpec spec =
          stress_spec(200, 25.0, policy, seed);
      FleetOrchestrator event_engine(spec);
      const FleetTimeline reference = build_reference_timeline(spec);
      EXPECT_EQ(timeline_to_text(event_engine.timeline(), spec.num_nodes),
                timeline_to_text(reference, spec.num_nodes))
          << "policy " << policy << " seed " << seed;
    }
  }
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

TEST(FleetDeterminism, CampaignArtifactsAreByteIdenticalAcrossJobCounts) {
  // The 3-node fleet replays inline at both job counts. The 16-node one
  // replays its nodes on the pool at jobs=1, where the campaign runs its
  // cells inline, and inline inside each cell's range at jobs=8.
  for (const char* scenario : {"fleet-smoke", "mega-fleet"}) {
    campaign::CampaignSpec spec;
    spec.name = "fleet-determinism";
    spec.scenarios = {scenario};
    spec.models = "baseline";
    spec.seeds = {1, 2};
    Config overrides;
    overrides.set("sweep.fleet.policy", "first-fit,consolidate");
    overrides.set("fleet.horizon", "6");
    if (spec.scenarios[0] == "mega-fleet") overrides.set("nodes", "16");
    spec.apply(overrides);

    campaign::CampaignRunner serial(spec);
    campaign::CampaignRunner parallel(spec);
    const campaign::CampaignReport a = serial.run(/*jobs=*/1);
    const campaign::CampaignReport b = parallel.run(/*jobs=*/8);
    EXPECT_EQ(a.executed, 4) << scenario;
    EXPECT_EQ(campaign_artifacts_text(a), campaign_artifacts_text(b))
        << scenario;
  }
}

}  // namespace
}  // namespace greennfv::orchestrator
