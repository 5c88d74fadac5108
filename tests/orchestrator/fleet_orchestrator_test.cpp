#include <gtest/gtest.h>

#include <cmath>

#include "core/nf_controller.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/presets.hpp"
#include "tests/support/timeline_text.hpp"

/// FleetOrchestrator contract — the acceptance criteria of the fleet
/// subsystem: a static single-node fleet degenerates bit-identically to
/// core::evaluate_scheduler; same seed => bit-identical fleet telemetry; the
/// pre-computed timeline is model-independent and internally consistent
/// (every migration/wake carries its downtime + energy charge, and the
/// per-window energy series decomposes exactly into node + standby +
/// charge energy); power gating saves idle energy on static fleets; and
/// oversubscribed fleets reject chains instead of failing.

namespace greennfv::orchestrator {
namespace {

/// ci-smoke geometry with the fleet block enabled. arrival_rate > 0 makes
/// it dynamic; 0 freezes it (the degeneration case).
scenario::ScenarioSpec fleet_spec(int nodes, double arrival_rate,
                                  const std::string& policy) {
  scenario::ScenarioSpec spec = scenario::preset("ci-smoke");
  spec.num_nodes = nodes;
  spec.fleet.enabled = true;
  spec.fleet.arrival_rate = arrival_rate;
  spec.fleet.policy = policy;
  spec.fleet.horizon_windows = 8;
  spec.fleet.mean_holding_windows = 3.0;
  spec.fleet.chain_offered_gbps = 3.0;
  spec.fleet.sleep_after_windows = 1;
  return spec;
}

void expect_eval_results_bit_identical(const core::EvalResult& a,
                                       const core::EvalResult& b) {
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.mean_gbps, b.mean_gbps);
  EXPECT_EQ(a.mean_energy_j, b.mean_energy_j);
  EXPECT_EQ(a.mean_power_w, b.mean_power_w);
  EXPECT_EQ(a.mean_efficiency, b.mean_efficiency);
  EXPECT_EQ(a.sla_satisfaction, b.sla_satisfaction);
  EXPECT_EQ(a.drop_fraction, b.drop_fraction);
  EXPECT_EQ(a.windows, b.windows);
}

TEST(FleetOrchestrator, StaticSingleNodeDegeneratesToEvaluateScheduler) {
  // nodes=1, no arrivals/departures, migration disabled — as a frozen
  // fleet and as a static deployment: both must reproduce the direct
  // core::evaluate_scheduler numbers bit for bit — including a trained
  // model, so the factory seed discipline is covered too.
  scenario::ScenarioSpec fleet_scenario = scenario::preset("ci-smoke");
  fleet_scenario.fleet.enabled = true;
  fleet_scenario.fleet.arrival_rate = 0.0;
  fleet_scenario.fleet.migration = false;

  scenario::ScenarioSpec static_scenario = fleet_scenario;
  static_scenario.fleet.enabled = false;

  const std::vector<scenario::SchedulerFactory> roster =
      scenario::filter_roster(
          scenario::default_roster(fleet_scenario),
          "baseline,heuristics,ee-pstate,q-learning");

  scenario::EvalReport golden;
  for (const scenario::SchedulerFactory& entry : roster) {
    const core::EnvConfig env = static_scenario.env_config();
    const auto scheduler = entry.make(env, static_scenario.seed);
    scenario::ModelReport model;
    model.prefix = scenario::series_prefix(entry.name);
    model.result = core::evaluate_scheduler(
        env, *scheduler, static_scenario.eval_windows,
        scenario::node_eval_seed(static_scenario, 0), entry.warmup,
        &golden.series, model.prefix);
    model.result.scheduler = entry.name;
    golden.models.push_back(std::move(model));
  }

  FleetOrchestrator orchestrator(fleet_scenario);
  const FleetReport fleet = orchestrator.run(roster);
  const FleetReport deployed = FleetOrchestrator(static_scenario).run(roster);

  for (const FleetReport* report : {&fleet, &deployed}) {
    ASSERT_EQ(report->report.models.size(), golden.models.size());
    for (std::size_t m = 0; m < golden.models.size(); ++m) {
      SCOPED_TRACE(golden.models[m].result.scheduler);
      expect_eval_results_bit_identical(report->report.models[m].result,
                                        golden.models[m].result);
    }
    // The shared per-window series are bit-identical too.
    for (const auto& model : golden.models) {
      for (const char* series : {"throughput_gbps", "energy_j", "power_w",
                                 "efficiency", "drop_fraction",
                                 "offered_pps"}) {
        const std::string name = model.prefix + series;
        SCOPED_TRACE(name);
        ASSERT_TRUE(report->report.series.has(name));
        const TimeSeries& a = report->report.series.series(name);
        const TimeSeries& b = golden.series.series(name);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a.times()[i], b.times()[i]);
          EXPECT_EQ(a.values()[i], b.values()[i]);
        }
      }
    }
  }
  // The static deployment reports only those six series per model.
  EXPECT_EQ(deployed.report.series.series_names(),
            golden.series.series_names());
  // Static fleet: nothing arrived beyond the initial set, nothing moved.
  EXPECT_EQ(fleet.departures, 0);
  EXPECT_EQ(fleet.migrations, 0);
  EXPECT_EQ(fleet.rejected, 0);
  EXPECT_EQ(fleet.standby_energy_j, 0.0);
}

TEST(FleetOrchestrator, SameSeedIsBitIdentical) {
  const scenario::ScenarioSpec spec =
      fleet_spec(3, /*arrival_rate=*/0.9, "consolidate");
  const std::vector<scenario::SchedulerFactory> roster =
      scenario::untrained_roster(spec);

  FleetOrchestrator a(spec);
  FleetOrchestrator b(spec);
  const FleetReport ra = a.run(roster);
  const FleetReport rb = b.run(roster);

  // Identical timelines...
  EXPECT_EQ(ra.arrivals, rb.arrivals);
  EXPECT_EQ(ra.departures, rb.departures);
  EXPECT_EQ(ra.migrations, rb.migrations);
  EXPECT_EQ(ra.wakeups, rb.wakeups);
  EXPECT_EQ(ra.standby_energy_j, rb.standby_energy_j);
  // ...and bit-identical telemetry, series by series, sample by sample.
  const auto names_a = ra.report.series.series_names();
  ASSERT_EQ(names_a, rb.report.series.series_names());
  for (const std::string& name : names_a) {
    const TimeSeries& sa = ra.report.series.series(name);
    const TimeSeries& sb = rb.report.series.series(name);
    ASSERT_EQ(sa.size(), sb.size()) << name;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.times()[i], sb.times()[i]) << name;
      EXPECT_EQ(sa.values()[i], sb.values()[i]) << name;
    }
  }
}

TEST(FleetOrchestrator, DifferentSeedsChangeTheTimeline) {
  scenario::ScenarioSpec spec = fleet_spec(3, 0.9, "least-loaded");
  FleetOrchestrator a(spec);
  spec.seed = 1234567;
  FleetOrchestrator b(spec);
  // The canonical serialization pins the whole history (membership is
  // replayed from the per-window deltas).
  EXPECT_NE(timeline_to_text(a.timeline(), spec.num_nodes),
            timeline_to_text(b.timeline(), spec.num_nodes));
}

TEST(FleetOrchestrator, TimelineChargesAreConsistent) {
  // Churn-heavy: enough arrivals/departures that consolidation migrates
  // and power gating wakes (verified against this seed).
  scenario::ScenarioSpec spec = fleet_spec(3, 1.5, "consolidate");
  spec.fleet.horizon_windows = 12;
  FleetOrchestrator orchestrator(spec);
  const FleetTimeline& timeline = orchestrator.timeline();

  int migrations = 0;
  int wake_charges = 0;
  double migration_energy = 0.0;
  double wake_energy = 0.0;
  double downtime = 0.0;
  for (const auto& win : timeline.windows) {
    migrations += static_cast<int>(win.migrations.size());
    for (const DowntimeCharge& charge : win.charges) {
      downtime += charge.downtime_s;
      if (charge.kind == ChargeKind::kMigration) {
        EXPECT_EQ(charge.downtime_s, spec.fleet.migration_downtime_s);
        EXPECT_EQ(charge.energy_j, spec.fleet.migration_energy_j);
        migration_energy += charge.energy_j;
      } else {
        EXPECT_EQ(charge.downtime_s, spec.node.wake_latency_s);
        EXPECT_EQ(charge.energy_j,
                  spec.node.p_idle_w * spec.node.wake_latency_s);
        wake_energy += charge.energy_j;
        ++wake_charges;
      }
    }
    // Every migration carries exactly one migration charge.
    int migration_charges = 0;
    for (const DowntimeCharge& charge : win.charges)
      if (charge.kind == ChargeKind::kMigration) ++migration_charges;
    EXPECT_EQ(migration_charges, static_cast<int>(win.migrations.size()));
  }
  EXPECT_EQ(migrations, timeline.migrations);
  EXPECT_EQ(wake_charges, timeline.wakeups);
  EXPECT_EQ(migration_energy, timeline.migration_energy_j);
  EXPECT_EQ(wake_energy, timeline.wake_energy_j);
  EXPECT_EQ(downtime, timeline.downtime_s);
  // The consolidating policy on a churning 3-node fleet must actually
  // migrate and power gating must actually trigger — otherwise this test
  // exercises nothing.
  EXPECT_GT(timeline.migrations, 0);
  EXPECT_GT(timeline.wakeups, 0);
}

TEST(FleetOrchestrator, EnergySeriesDecomposesIntoNodeStandbyAndCharges) {
  scenario::ScenarioSpec spec = fleet_spec(3, 1.5, "consolidate");
  spec.fleet.horizon_windows = 12;
  FleetOrchestrator orchestrator(spec);
  const std::vector<scenario::SchedulerFactory> roster =
      scenario::filter_roster(scenario::untrained_roster(spec), "baseline");
  const FleetReport fleet = orchestrator.run(roster);
  const FleetTimeline& timeline = orchestrator.timeline();
  const std::string prefix = fleet.report.models[0].prefix;

  const TimeSeries& energy = fleet.report.series.series(prefix + "energy_j");
  ASSERT_EQ(energy.size(), timeline.windows.size());
  MembershipReplay replay(timeline, spec.num_nodes);
  for (std::size_t w = 0; w < timeline.windows.size(); ++w) {
    const auto& win = timeline.windows[w];
    replay.advance();
    // Recompute in the orchestrator's accumulation order: standby, then
    // node energies in node order, then the window's charge energy.
    double expected = win.standby_energy_j;
    for (int n = 0; n < replay.num_nodes(); ++n) {
      if (replay.members(n).empty()) continue;
      const std::string node_series =
          prefix + "node" + std::to_string(n) + "_energy_j";
      ASSERT_TRUE(fleet.report.series.has(node_series));
      const TimeSeries& node_energy =
          fleet.report.series.series(node_series);
      // Node series are sparse (only occupied windows); find the sample
      // at this window's time.
      const double t = energy.times()[w];
      bool found = false;
      for (std::size_t i = 0; i < node_energy.size(); ++i) {
        if (node_energy.times()[i] == t) {
          expected += node_energy.values()[i];
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << node_series << " missing t=" << t;
    }
    double charge_energy = 0.0;
    for (const DowntimeCharge& charge : win.charges)
      charge_energy += charge.energy_j;
    expected += charge_energy;
    if (win.active_nodes == 1 && win.standby_energy_j == 0.0 &&
        win.charges.empty()) {
      // Degenerate window: the solo node's outcome is used verbatim.
      EXPECT_DOUBLE_EQ(energy.values()[w], expected);
    } else {
      EXPECT_EQ(energy.values()[w], expected);
    }
  }
}

TEST(FleetOrchestrator, PowerGatingSleepsDrainedStaticNodes) {
  // 3 nodes, 2 static chains: one node never hosts anything. With gating
  // it idles sleep_after windows then sleeps — cheaper than the p_idle
  // forever that a static deployment charges.
  scenario::ScenarioSpec spec = fleet_spec(3, 0.0, "least-loaded");
  spec.num_chains = 2;
  spec.num_flows = 4;
  spec.fleet.sleep_after_windows = 2;
  FleetOrchestrator orchestrator(spec);
  const FleetTimeline& timeline = orchestrator.timeline();

  const double window_s = spec.window_s;
  const int horizon = orchestrator.horizon();
  // Exactly one node is empty every window.
  double expected_standby = 0.0;
  for (int w = 0; w < horizon; ++w) {
    const auto& win = timeline.windows[static_cast<std::size_t>(w)];
    EXPECT_EQ(win.active_nodes, 2);
    EXPECT_EQ(win.idle_nodes + win.asleep_nodes, 1);
    // Gated after sleep_after_windows empty windows.
    if (w < spec.fleet.sleep_after_windows) {
      EXPECT_EQ(win.asleep_nodes, 0);
      expected_standby += spec.node.p_idle_w * window_s;
    } else {
      EXPECT_EQ(win.asleep_nodes, 1);
      expected_standby += spec.node.p_sleep_w * window_s;
    }
  }
  EXPECT_DOUBLE_EQ(timeline.standby_energy_j, expected_standby);
  // Strictly cheaper than a static deployment's always-idle node.
  EXPECT_LT(timeline.standby_energy_j,
            spec.node.p_idle_w * window_s * horizon);
}

TEST(FleetOrchestrator, OversubscribedFleetRejectsInsteadOfFailing) {
  // Five 3-core chains into one 14-core node: four fit, one is rejected.
  scenario::ScenarioSpec spec = fleet_spec(1, 0.0, "first-fit");
  spec.num_chains = 5;
  spec.num_flows = 5;
  FleetOrchestrator orchestrator(spec);
  EXPECT_EQ(orchestrator.timeline().rejected, 1);
  EXPECT_EQ(orchestrator.timeline().arrivals, 4);

  const std::vector<scenario::SchedulerFactory> roster =
      scenario::filter_roster(scenario::untrained_roster(spec), "baseline");
  const FleetReport fleet = orchestrator.run(roster);
  EXPECT_GT(fleet.report.models[0].result.mean_gbps, 0.0);
  // Occupancy histogram: one node hosting 4 chains every window.
  ASSERT_EQ(fleet.occupancy_fractions.size(), 5u);
  EXPECT_DOUBLE_EQ(fleet.occupancy_fractions[4], 1.0);
}

TEST(FleetOrchestrator, RunsStaticSpecsAndRejectsUnplaceableStaticChains) {
  // A static spec runs, and a one-node one hosts every chain however
  // full: five 3-core chains on one 14-core node, none rejected.
  scenario::ScenarioSpec spec = scenario::preset("ci-smoke");
  spec.num_chains = 5;
  spec.num_flows = 5;
  FleetOrchestrator single(spec);
  EXPECT_EQ(single.timeline().arrivals, 5);
  EXPECT_EQ(single.timeline().rejected, 0);
  const FleetReport report = single.run(
      scenario::filter_roster(scenario::untrained_roster(spec), "baseline"));
  EXPECT_GT(report.report.models[0].result.mean_gbps, 0.0);

  // Across nodes a static chain that fits nowhere is an error from the
  // constructor, before any scheduler is made (3-core chains, 2 free
  // cores per node) ...
  spec.num_nodes = 2;
  spec.node.total_cores = 4;
  EXPECT_THROW((void)FleetOrchestrator(spec), std::invalid_argument);

  // ... and so is a static node whose chains all lack traffic.
  scenario::ScenarioSpec quiet = scenario::preset("heterogeneous-cluster");
  quiet.flows = {scenario::flow_from_text("udp:poisson:512:1e6:0", 0),
                 scenario::flow_from_text("udp:poisson:512:1e6:1", 1)};
  quiet.num_flows = 2;
  EXPECT_THROW((void)FleetOrchestrator(quiet), std::invalid_argument);
}

TEST(FleetOrchestrator, HorizonDefaultsToEvalWindows) {
  scenario::ScenarioSpec spec = fleet_spec(2, 0.5, "least-loaded");
  spec.fleet.horizon_windows = 0;
  spec.eval_windows = 7;
  FleetOrchestrator orchestrator(spec);
  EXPECT_EQ(orchestrator.horizon(), 7);
  EXPECT_EQ(orchestrator.timeline().windows.size(), 7u);
}

TEST(FleetOrchestrator, DynamicFleetSeesArrivalsAndDepartures) {
  const scenario::ScenarioSpec spec = fleet_spec(3, 0.9, "least-loaded");
  FleetOrchestrator orchestrator(spec);
  const FleetTimeline& timeline = orchestrator.timeline();
  // Initial chains + Poisson arrivals over 8 windows at 0.9/window.
  EXPECT_GT(timeline.arrivals, spec.num_chains);
  // Holding 3 windows over an 8-window horizon: somebody left.
  EXPECT_GT(timeline.departures, 0);
  // Chains and flows stay in sync: the pool holds the initial workload
  // plus every *placed* dynamic chain's flows (rejected arrivals never
  // join it).
  std::size_t expected_flows = 0;
  for (const ChainInstance& chain : timeline.chains) {
    EXPECT_FALSE(chain.flows.empty());
    EXPECT_GT(chain.offered_gbps, 0.0);
    if (chain.id < spec.num_chains || chain.first_node >= 0)
      expected_flows += chain.flows.size();
  }
  EXPECT_EQ(expected_flows, timeline.flows.size());
}

}  // namespace
}  // namespace greennfv::orchestrator
