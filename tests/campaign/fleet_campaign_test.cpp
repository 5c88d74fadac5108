#include <gtest/gtest.h>

#include "campaign/runner.hpp"
#include "orchestrator/fleet.hpp"
#include "scenario/presets.hpp"

/// Fleet scenarios through the campaign subsystem: the runner dispatches
/// fleet.enabled cells to the orchestrator, a parallel (jobs=8) fleet
/// sweep is bit-identical to the serial one (the PR 3 equivalence
/// guarantee extended to the fleet preset), and sweep.fleet.* axes expand
/// like any other scenario key.

namespace greennfv::campaign {
namespace {

/// 2 policies x 2 seeds over a shrunk fleet-smoke: 4 dynamic-fleet runs.
CampaignSpec tiny_fleet_campaign() {
  CampaignSpec spec;
  spec.name = "fleet-runner-test";
  spec.scenarios = {"fleet-smoke"};
  spec.models = "baseline,ee-pstate";
  spec.seeds = {1, 2};
  Config overrides;
  overrides.set("sweep.fleet.policy", "least-loaded,consolidate");
  overrides.set("fleet.horizon", "6");
  spec.apply(overrides);
  return spec;
}

void expect_reports_bit_identical(const CampaignReport& a,
                                  const CampaignReport& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    const RunResult& ra = a.runs[r];
    const RunResult& rb = b.runs[r];
    SCOPED_TRACE(ra.run_id);
    EXPECT_EQ(ra.run_id, rb.run_id);
    ASSERT_EQ(ra.report.models.size(), rb.report.models.size());
    for (std::size_t m = 0; m < ra.report.models.size(); ++m) {
      const core::EvalResult& ea = ra.report.models[m].result;
      const core::EvalResult& eb = rb.report.models[m].result;
      EXPECT_EQ(ea.scheduler, eb.scheduler);
      EXPECT_EQ(ea.mean_gbps, eb.mean_gbps);
      EXPECT_EQ(ea.mean_energy_j, eb.mean_energy_j);
      EXPECT_EQ(ea.mean_efficiency, eb.mean_efficiency);
      EXPECT_EQ(ea.sla_satisfaction, eb.sla_satisfaction);
      EXPECT_EQ(ea.drop_fraction, eb.drop_fraction);
    }
    const auto names_a = ra.report.series.series_names();
    ASSERT_EQ(names_a, rb.report.series.series_names());
    for (const std::string& name : names_a) {
      const TimeSeries& sa = ra.report.series.series(name);
      const TimeSeries& sb = rb.report.series.series(name);
      ASSERT_EQ(sa.size(), sb.size()) << name;
      for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa.values()[i], sb.values()[i]) << name;
      }
    }
  }
  ASSERT_EQ(a.summary.cells.size(), b.summary.cells.size());
  for (std::size_t c = 0; c < a.summary.cells.size(); ++c) {
    EXPECT_EQ(a.summary.cells[c].gbps.mean, b.summary.cells[c].gbps.mean);
    EXPECT_EQ(a.summary.cells[c].energy_j.mean,
              b.summary.cells[c].energy_j.mean);
    EXPECT_EQ(a.summary.cells[c].sla.mean, b.summary.cells[c].sla.mean);
  }
}

TEST(FleetCampaign, ParallelFleetSweepIsBitIdenticalToSerial) {
  CampaignRunner serial(tiny_fleet_campaign());
  CampaignRunner parallel(tiny_fleet_campaign());
  const CampaignReport a = serial.run(/*jobs=*/1);
  const CampaignReport b = parallel.run(/*jobs=*/8);
  // 2 fleet.policy cells x 2 seeds.
  EXPECT_EQ(a.executed, 4);
  EXPECT_EQ(b.executed, 4);
  expect_reports_bit_identical(a, b);
}

TEST(FleetCampaign, RunsExecuteThroughTheOrchestrator) {
  CampaignRunner runner(tiny_fleet_campaign());
  const CampaignReport report = runner.run(/*jobs=*/2);
  for (const RunResult& run : report.runs) {
    SCOPED_TRACE(run.run_id);
    // Fleet-history series prove the run was a fleet, not a static
    // deployment.
    const std::string prefix = run.report.models.front().prefix;
    EXPECT_TRUE(run.report.series.has(prefix + "active_nodes"));
    EXPECT_TRUE(run.report.series.has(prefix + "live_chains"));
  }
}

TEST(FleetCampaign, MatchesDirectOrchestratorForTheBaseSeed) {
  // A one-cell fleet campaign reproduces FleetOrchestrator numbers
  // exactly, the same guarantee the fig9 campaign gives
  // core::evaluate_scheduler.
  scenario::ScenarioSpec scenario = scenario::preset("fleet-smoke");
  scenario.fleet.horizon_windows = 6;

  CampaignSpec spec;
  spec.name = "fleet-one-cell";
  spec.scenarios = {"fleet-smoke"};
  spec.models = "baseline";
  Config overrides;
  overrides.set("fleet.horizon", "6");
  spec.apply(overrides);

  CampaignRunner runner(spec);
  const CampaignReport report = runner.run(/*jobs=*/1);

  orchestrator::FleetOrchestrator direct(scenario);
  const orchestrator::FleetReport golden = direct.run(
      scenario::filter_roster(scenario::default_roster(scenario),
                              "baseline"));

  ASSERT_EQ(report.runs.size(), 1u);
  const core::EvalResult& a = report.runs[0].report.models[0].result;
  const core::EvalResult& b = golden.report.models[0].result;
  EXPECT_EQ(a.mean_gbps, b.mean_gbps);
  EXPECT_EQ(a.mean_energy_j, b.mean_energy_j);
  EXPECT_EQ(a.sla_satisfaction, b.sla_satisfaction);
  EXPECT_EQ(a.drop_fraction, b.drop_fraction);
}

TEST(FleetCampaign, MistypedFleetSweepAxisIsAHardError) {
  CampaignSpec spec;
  Config config;
  config.set("sweep.fleet.polcy", "least-loaded,consolidate");
  EXPECT_THROW(spec.apply(config), std::invalid_argument);
}

}  // namespace
}  // namespace greennfv::campaign
