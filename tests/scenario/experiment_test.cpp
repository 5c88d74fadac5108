#include <gtest/gtest.h>

#include "common/string_util.hpp"
#include "core/nf_controller.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"

/// Static deployment contract (fleet.enabled=0 through FleetOrchestrator):
/// the single-node path is byte-for-byte the pre-scenario evaluation
/// harness; the cluster path partitions chains and traffic per node and
/// aggregates fleet metrics; rosters filter by name with hard errors on
/// typos.

namespace greennfv::scenario {
namespace {

ScenarioSpec tiny(const std::string& name) {
  ScenarioSpec spec = preset(name);
  spec.eval_windows = 3;
  spec.episodes = 2;
  spec.q_episodes = 2;
  spec.candidates = 1;
  spec.steps_per_episode = 2;
  return spec;
}

TEST(StaticDeployment, SingleNodeMatchesEvaluateSchedulerExactly) {
  const ScenarioSpec spec = tiny("paper-default");
  orchestrator::FleetOrchestrator runner(spec);
  const std::vector<SchedulerFactory> roster = untrained_roster(spec);
  const EvalReport report = runner.run(roster).report;

  // Replay the legacy call for the same models: identical numbers.
  for (const auto& entry : roster) {
    const auto scheduler = entry.make(spec.env_config(), spec.seed);
    const core::EvalResult direct = core::evaluate_scheduler(
        spec.env_config(), *scheduler, spec.eval_windows, spec.seed + 77,
        entry.warmup);
    const auto& via_runner =
        report.models[static_cast<std::size_t>(
                          &entry - roster.data())]
            .result;
    EXPECT_DOUBLE_EQ(via_runner.mean_gbps, direct.mean_gbps) << entry.name;
    EXPECT_DOUBLE_EQ(via_runner.mean_energy_j, direct.mean_energy_j);
    EXPECT_DOUBLE_EQ(via_runner.mean_efficiency, direct.mean_efficiency);
    EXPECT_DOUBLE_EQ(via_runner.sla_satisfaction, direct.sla_satisfaction);
    EXPECT_DOUBLE_EQ(via_runner.drop_fraction, direct.drop_fraction);
  }
}

TEST(StaticDeployment, SingleNodeKeepsEvaluateSchedulersClock) {
  // 0.1 s windows: a running sum of window lengths drifts from w * 0.1 in
  // the last bit by the seventh window; the timestamps must still match.
  ScenarioSpec spec = tiny("paper-default");
  spec.window_s = 0.1;
  spec.eval_windows = 10;
  const SchedulerFactory baseline = untrained_roster(spec).front();
  const EvalReport report =
      orchestrator::FleetOrchestrator(spec).run({baseline}).report;
  telemetry::Recorder direct;
  const auto scheduler = baseline.make(spec.env_config(), spec.seed);
  (void)core::evaluate_scheduler(spec.env_config(), *scheduler,
                                 spec.eval_windows, node_eval_seed(spec, 0),
                                 baseline.warmup, &direct, "");
  const std::string& prefix = report.models.at(0).prefix;
  for (const std::string& name : direct.series_names()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(report.series.series(prefix + name).times(),
              direct.series(name).times());
  }
}

TEST(StaticDeployment, RecordsPerWindowSeriesUnderModelPrefixes) {
  const ScenarioSpec spec = tiny("paper-default");
  orchestrator::FleetOrchestrator runner(spec);
  const EvalReport report = runner.run(untrained_roster(spec)).report;
  for (const char* series :
       {"throughput_gbps", "energy_j", "power_w", "efficiency",
        "drop_fraction"}) {
    const std::string name = series_prefix("EE-Pstate") + series;
    ASSERT_TRUE(report.series.has(name)) << name;
    EXPECT_EQ(report.series.series(name).size(),
              static_cast<std::size_t>(spec.eval_windows));
  }
}

TEST(StaticDeployment, ClusterPartitionsChainsAndAggregatesFleetMetrics) {
  const ScenarioSpec spec = tiny("heterogeneous-cluster");
  orchestrator::FleetOrchestrator runner(spec);
  const orchestrator::FleetTimeline& timeline = runner.timeline();

  // Placement must cover all six chains over the populated nodes.
  orchestrator::MembershipReplay replay(timeline, spec.num_nodes);
  replay.advance();
  const auto comps = resolved_chain_nfs(spec);
  int chains = 0;
  int flows = 0;
  for (const int n : replay.occupied()) {
    const core::EnvConfig env = partition_node_env(
        spec, comps, timeline.flows, replay.members(n), n);
    EXPECT_GE(env.num_chains, 1);
    EXPECT_EQ(env.chain_nfs.size(),
              static_cast<std::size_t>(env.num_chains));
    EXPECT_FALSE(env.flows.empty());
    chains += env.num_chains;
    flows += static_cast<int>(env.flows.size());
  }
  EXPECT_EQ(chains, spec.num_chains);
  EXPECT_EQ(flows, spec.num_flows);
  EXPECT_EQ(static_cast<int>(replay.occupied().size()) +
                timeline.windows.front().idle_nodes,
            spec.num_nodes);

  const std::vector<SchedulerFactory> roster =
      filter_roster(untrained_roster(spec), "baseline");
  const EvalReport report = runner.run(roster).report;
  const auto& model = report.models.at(0);

  // The aggregate series is the per-window sum over node series (plus the
  // idle-node charge), and the reported means are its window means.
  const auto& agg = report.series.series(model.prefix + "throughput_gbps");
  ASSERT_EQ(agg.size(), static_cast<std::size_t>(spec.eval_windows));
  double mean = 0.0;
  for (std::size_t w = 0; w < agg.size(); ++w) {
    double sum = 0.0;
    for (const int n : replay.occupied()) {
      const std::string p = model.prefix + format("node%d_", n);
      sum += report.series.series(p + "throughput_gbps").values()[w];
    }
    EXPECT_NEAR(agg.values()[w], sum, 1e-9);
    mean += agg.values()[w];
  }
  mean /= static_cast<double>(spec.eval_windows);
  EXPECT_NEAR(model.result.mean_gbps, mean, 1e-9);
  // A 3-node fleet must burn at least 3x idle power.
  EXPECT_GT(model.result.mean_power_w, 3 * 0.9 * spec.node.p_idle_w);
}

TEST(StaticDeployment, IdleNodesAreBilledAsOneProduct) {
  // Five nodes, best fit: two host the six chains, three idle. Their draw
  // is (3 * p_idle) * window_s, which at a 0.7 s window differs in the
  // last bit from summing p_idle * window_s three times.
  ScenarioSpec spec = tiny("heterogeneous-cluster");
  spec.num_nodes = 5;
  spec.placement = PlacementPolicy::kEnergyBestFit;
  spec.window_s = 0.7;
  orchestrator::FleetOrchestrator runner(spec);
  const EvalReport report =
      runner.run(filter_roster(untrained_roster(spec), "baseline")).report;
  const std::string& prefix = report.models.at(0).prefix;
  const auto& energy = report.series.series(prefix + "energy_j");
  for (std::size_t w = 0; w < energy.size(); ++w) {
    EXPECT_EQ(runner.timeline().windows[w].idle_nodes, 3);
    double expected = 3 * spec.node.p_idle_w * spec.window_s;
    for (const char* node : {"node0_energy_j", "node1_energy_j"})
      expected += report.series.series(prefix + node).values()[w];
    EXPECT_EQ(energy.values()[w], expected) << "window " << w;
  }
}

TEST(StaticDeployment, TrainsOnePolicyPerNodeAndChainCount) {
  // heterogeneous-cluster spreads its six chains two per node: a trained
  // model is made once per node (one per (node, chain count), as fleets
  // do), and once on a single node.
  ScenarioSpec spec = tiny("heterogeneous-cluster");
  int makes = 0;
  SchedulerFactory counted = untrained_roster(spec).front();
  const auto make = counted.make;
  counted.make = [&makes, make](const core::EnvConfig& env,
                                std::uint64_t seed) {
    ++makes;
    return make(env, seed);
  };
  (void)orchestrator::FleetOrchestrator(spec).run({counted});
  EXPECT_EQ(makes, 3);

  spec.num_nodes = 1;
  makes = 0;
  (void)orchestrator::FleetOrchestrator(spec).run({counted});
  EXPECT_EQ(makes, 1);
}

TEST(Roster, FilterPicksByForgivingNameAndRejectsTypos) {
  const ScenarioSpec spec = tiny("paper-default");
  const auto roster = default_roster(spec);
  ASSERT_EQ(roster.size(), 7u);
  const auto picked = filter_roster(roster, "greennfv-maxt,BASELINE");
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].name, "GreenNFV(MaxT)");
  EXPECT_EQ(picked[1].name, "Baseline");
  EXPECT_THROW((void)filter_roster(roster, "greennfv-maxx"),
               std::invalid_argument);
  EXPECT_THROW((void)filter_roster(roster, "baselne"),
               std::invalid_argument);
}

TEST(Roster, FilterRejectsAModelPickedTwice) {
  // Two runs of one model would append to the same series.
  const auto roster = untrained_roster(tiny("paper-default"));
  for (const char* models :
       {"baseline,Baseline", "ee-pstate,baseline,EE_Pstate"}) {
    EXPECT_THROW((void)filter_roster(roster, models), std::invalid_argument)
        << models;
  }
}

TEST(Roster, SeriesPrefixSanitizesModelNames) {
  EXPECT_EQ(series_prefix("GreenNFV(MaxT)"), "greennfv_maxt_");
  EXPECT_EQ(series_prefix("EE-Pstate"), "ee_pstate_");
  EXPECT_EQ(series_prefix("Q-Learning"), "q_learning_");
}

TEST(StaticDeployment, WarmupDoesNotShiftTheProfileModelsAreMeasuredOn) {
  // Deterministic CBR workload + static Baseline: two roster entries that
  // differ only in warmup must measure identical per-window series — the
  // flash crowd has to hit both at the same recorded time.
  ScenarioSpec spec = tiny("paper-default");
  spec.num_chains = 1;
  // Light enough that the untuned baseline is offered-limited, so the
  // surge is visible in goodput (not swallowed by saturation).
  spec.flows = {flow_from_text("udp:cbr:512:2e5:0", 0)};
  spec.num_flows = 1;
  spec.window_s = 1.0;
  spec.sub_windows = 1;
  spec.eval_windows = 6;
  spec.profile.kind = traffic::RateProfile::Kind::kFlashCrowd;
  spec.profile.surge_start_s = 2.0;
  spec.profile.surge_duration_s = 2.0;
  spec.profile.surge_factor = 1.3;

  auto roster = untrained_roster(spec);
  SchedulerFactory early = roster.front();  // Baseline
  SchedulerFactory late = early;
  early.warmup = 0;
  late.name = "Baseline-late";
  late.warmup = 4;

  orchestrator::FleetOrchestrator runner(spec);
  telemetry::Recorder series;
  const ModelReport a = runner.run_model(early, &series);
  const ModelReport b = runner.run_model(late, &series);
  const auto& thr_a = series.series(a.prefix + "throughput_gbps");
  const auto& thr_b = series.series(b.prefix + "throughput_gbps");
  ASSERT_EQ(thr_a.size(), thr_b.size());
  double peak = 0.0;
  for (std::size_t w = 0; w < thr_a.size(); ++w) {
    EXPECT_DOUBLE_EQ(thr_a.values()[w], thr_b.values()[w]) << "window " << w;
    peak = std::max(peak, thr_a.values()[w]);
  }
  // And the surge actually lands inside the measured horizon (windows 2-3).
  EXPECT_GT(peak, thr_a.values()[0]);
}

TEST(StaticDeployment, NonSteadyProfileChangesTheMeasurement) {
  // Same seed, same topology: a flash-crowd envelope must change what the
  // identical scheduler measures — proof the profile reaches the engine.
  ScenarioSpec steady = tiny("paper-default");
  ScenarioSpec crowd = steady;
  crowd.profile.kind = traffic::RateProfile::Kind::kFlashCrowd;
  crowd.profile.surge_start_s = 0.0;
  crowd.profile.surge_duration_s = 1e9;
  crowd.profile.surge_factor = 2.0;

  const auto roster = untrained_roster(steady);
  const auto& baseline = roster.front();
  orchestrator::FleetOrchestrator steady_runner(steady);
  orchestrator::FleetOrchestrator crowd_runner(crowd);
  const auto steady_report = steady_runner.run({baseline}).report;
  const auto crowd_report = crowd_runner.run({baseline}).report;
  EXPECT_NE(steady_report.models[0].result.mean_gbps,
            crowd_report.models[0].result.mean_gbps);
}

}  // namespace
}  // namespace greennfv::scenario
