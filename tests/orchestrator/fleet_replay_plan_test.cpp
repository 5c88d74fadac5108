#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.hpp"
#include "core/environment.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/presets.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"

/// An orchestrator plans its replay once, at the first run_model call, and
/// every later model replays from that plan. What a model gets must not
/// depend on which models ran before it on the same orchestrator: its
/// report and series, the make() calls its factory sees, and the replay
/// counters it adds must all equal a fresh orchestrator's single-model run.

namespace greennfv::orchestrator {
namespace {

/// A churning 24-node fleet with node crashes: wide enough to replay on
/// the pool, with rebuilds, drains and repeated (node, chain count) keys.
scenario::ScenarioSpec churning_spec() {
  scenario::ScenarioSpec spec = scenario::preset("fault-smoke");
  spec.seed = 41;
  spec.num_nodes = 24;
  spec.fleet.horizon_windows = 36;
  spec.fleet.arrival_rate = 10.0;
  spec.fleet.mean_holding_windows = 4.0;
  spec.fleet.policy = "least-loaded";
  spec.fault.node_crash_rate = 0.2;
  return spec;
}

/// A make() call's arguments, bit for bit.
std::string describe(const core::EnvConfig& env, std::uint64_t seed) {
  std::string text =
      format("seed=%llu chains=%d flows=%d offered=%s",
             static_cast<unsigned long long>(seed), env.num_chains,
             env.num_flows, double_bits(env.total_offered_gbps).c_str());
  for (const std::vector<std::string>& nfs : env.chain_nfs) {
    text += " [";
    for (const std::string& nf : nfs) text += nf + ",";
    text += "]";
  }
  for (const traffic::FlowSpec& flow : env.flows) {
    text += format(" flow%d:c%d/%u/%s", flow.id, flow.chain_index,
                   flow.pkt_bytes, double_bits(flow.mean_rate_pps).c_str());
  }
  return text;
}

/// `entry`, with every make() call's arguments appended to `makes`.
scenario::SchedulerFactory logged(scenario::SchedulerFactory entry,
                                  std::vector<std::string>& makes) {
  entry.make = [make = entry.make, &makes](const core::EnvConfig& env,
                                           std::uint64_t seed) {
    makes.push_back(describe(env, seed));
    return make(env, seed);
  };
  return entry;
}

/// One model's report: its means and every series under its prefix.
std::string model_text(const scenario::ModelReport& model,
                       const telemetry::Recorder& series) {
  const core::EvalResult& r = model.result;
  std::string text = format(
      "%s windows=%d gbps=%s energy=%s power=%s efficiency=%s sla=%s"
      " drop=%s\n",
      r.scheduler.c_str(), r.windows, double_bits(r.mean_gbps).c_str(),
      double_bits(r.mean_energy_j).c_str(),
      double_bits(r.mean_power_w).c_str(),
      double_bits(r.mean_efficiency).c_str(),
      double_bits(r.sla_satisfaction).c_str(),
      double_bits(r.drop_fraction).c_str());
  for (const std::string& name : series.series_names()) {
    if (name.rfind(model.prefix, 0) != 0) continue;
    text += name;
    const auto& s = series.series(name);
    for (std::size_t i = 0; i < s.size(); ++i) {
      text += " " + double_bits(s.times()[i]) + "=" +
              double_bits(s.values()[i]);
    }
    text += '\n';
  }
  return text;
}

struct ModelRun {
  std::string report;
  std::vector<std::string> makes;
  double node_windows = 0.0;
  double env_rebuilds = 0.0;
};

ModelRun run_one(FleetOrchestrator& fleet,
                 const scenario::SchedulerFactory& entry) {
  namespace mc = telemetry::metrics;
  ModelRun run;
  telemetry::Recorder series;
  const mc::Snapshot before = mc::snapshot();
  const scenario::ModelReport model =
      fleet.run_model(logged(entry, run.makes), &series);
  const mc::Snapshot after = mc::snapshot();
  run.report = model_text(model, series);
  run.node_windows = after.value("fleet.node_windows") -
                     before.value("fleet.node_windows");
  run.env_rebuilds = after.value("fleet.env_rebuilds") -
                     before.value("fleet.env_rebuilds");
  return run;
}

void expect_same(const ModelRun& got, const ModelRun& want) {
  EXPECT_EQ(got.report, want.report);
  EXPECT_EQ(got.makes, want.makes);
  EXPECT_EQ(got.node_windows, want.node_windows);
  EXPECT_EQ(got.env_rebuilds, want.env_rebuilds);
}

/// Baseline (CAT off, poll) and EE-Pstate (CAT on, its own knobs).
std::pair<scenario::SchedulerFactory, scenario::SchedulerFactory> models(
    const scenario::ScenarioSpec& spec) {
  const std::vector<scenario::SchedulerFactory> roster =
      scenario::filter_roster(scenario::untrained_roster(spec),
                              "baseline,ee-pstate");
  return {roster[0], roster[1]};
}

TEST(FleetReplayPlan, ModelsAfterTheFirstMatchAFreshOrchestrator) {
  telemetry::metrics::set_enabled(true);
  const scenario::ScenarioSpec spec = churning_spec();
  const auto [a, b] = models(spec);

  FleetOrchestrator shared(spec);
  const ModelRun first_a = run_one(shared, a);
  const ModelRun then_b = run_one(shared, b);
  const ModelRun again_a = run_one(shared, a);

  FleetOrchestrator fresh_a(spec);
  const ModelRun alone_a = run_one(fresh_a, a);
  FleetOrchestrator fresh_b(spec);
  const ModelRun alone_b = run_one(fresh_b, b);
  telemetry::metrics::set_enabled(false);

  // The fleet must churn for the plan to matter.
  ASSERT_GT(alone_a.env_rebuilds, static_cast<double>(spec.num_nodes));
  ASSERT_GT(alone_a.makes.size(), static_cast<std::size_t>(spec.num_nodes));
  expect_same(first_a, alone_a);
  expect_same(then_b, alone_b);
  expect_same(again_a, alone_a);
  EXPECT_EQ(then_b.makes.size(), alone_a.makes.size());
}

TEST(FleetReplayPlan, ReversedRosterGivesTheSameModelReports) {
  const scenario::ScenarioSpec spec = churning_spec();
  const auto [a, b] = models(spec);
  FleetOrchestrator forward(spec);
  const FleetReport ab = forward.run({a, b});
  FleetOrchestrator backward(spec);
  const FleetReport ba = backward.run({b, a});

  ASSERT_EQ(ab.report.models.size(), 2u);
  ASSERT_EQ(ba.report.models.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(ab.report.models[i].result.scheduler);
    EXPECT_EQ(model_text(ab.report.models[i], ab.report.series),
              model_text(ba.report.models[1 - i], ba.report.series));
  }
}

}  // namespace
}  // namespace greennfv::orchestrator
