#include <gtest/gtest.h>

#include <string>

#include "campaign/runner.hpp"
#include "common/string_util.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/presets.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tests/support/timeline_text.hpp"

/// The flight recorder's hard contract: simulation output is byte-
/// identical with the recorder on vs off. Spans and counters read the
/// clock and bump shards, but nothing they record may feed back into any
/// model — pinned here on a full fleet-smoke timeline and on a parallel
/// campaign's artifacts.

namespace greennfv::telemetry {
namespace {

class TraceDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm(); }
  void TearDown() override { disarm(); }
  static void disarm() {
    trace::set_enabled(false);
    trace::reset();
    metrics::set_enabled(false);
    metrics::reset();
  }
};

TEST_F(TraceDeterminismTest, FleetTimelineIdenticalTracedVsUntraced) {
  const scenario::ScenarioSpec spec = scenario::preset("fleet-smoke");

  const orchestrator::FleetOrchestrator plain(spec);
  const std::string untraced =
      orchestrator::timeline_to_text(plain.timeline(), spec.num_nodes);

  trace::set_enabled(true);
  metrics::set_enabled(true);
  const orchestrator::FleetOrchestrator recorded(spec);
  const std::string traced =
      orchestrator::timeline_to_text(recorded.timeline(), spec.num_nodes);

  EXPECT_EQ(untraced, traced);
  EXPECT_GT(trace::recorded(), 0u);
  EXPECT_GT(metrics::counter("fleet.arrivals").value(), 0u);
}

/// Byte-exact serialization of a campaign report (raw IEEE-754 bits of
/// every result and telemetry sample) — the same artifact text the
/// jobs-count determinism test pins.
std::string artifacts_text(const campaign::CampaignReport& report) {
  std::string out;
  for (const campaign::RunResult& run : report.runs) {
    out += run.run_id + "\n";
    for (const scenario::ModelReport& model : run.report.models) {
      const core::EvalResult& r = model.result;
      out += model.prefix + " " + r.scheduler;
      for (const double v :
           {r.mean_gbps, r.mean_energy_j, r.mean_power_w, r.mean_efficiency,
            r.sla_satisfaction, r.drop_fraction}) {
        // Appended piecewise (GCC-12 -Wrestrict false positive on
        // "s" + std::string&&).
        out += ' ';
        out += orchestrator::double_bits(v);
      }
      out += "\n";
    }
    for (const std::string& name : run.report.series.series_names()) {
      const TimeSeries& series = run.report.series.series(name);
      out += name;
      for (std::size_t i = 0; i < series.size(); ++i) {
        out += ' ';
        out += orchestrator::double_bits(series.times()[i]);
        out += ':';
        out += orchestrator::double_bits(series.values()[i]);
      }
      out += "\n";
    }
  }
  return out;
}

TEST_F(TraceDeterminismTest, CampaignArtifactsIdenticalTracedVsUntraced) {
  campaign::CampaignSpec spec;
  spec.name = "trace-determinism";
  spec.scenarios = {"fleet-smoke"};
  spec.models = "baseline";
  spec.seeds = {1, 2};
  Config overrides;
  overrides.set("sweep.fleet.policy", "first-fit,consolidate");
  overrides.set("fleet.horizon", "6");
  spec.apply(overrides);

  campaign::CampaignRunner untraced_runner(spec);
  const campaign::CampaignReport untraced = untraced_runner.run(/*jobs=*/4);

  trace::set_enabled(true);
  metrics::set_enabled(true);
  campaign::CampaignRunner traced_runner(spec);
  const campaign::CampaignReport traced = traced_runner.run(/*jobs=*/4);

  EXPECT_EQ(untraced.executed, 4);
  EXPECT_EQ(traced.executed, 4);
  EXPECT_EQ(artifacts_text(untraced), artifacts_text(traced));
}

}  // namespace
}  // namespace greennfv::telemetry
