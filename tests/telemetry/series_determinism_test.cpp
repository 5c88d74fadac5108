#include <gtest/gtest.h>

#include <map>
#include <string>

#include "campaign/runner.hpp"
#include "common/string_util.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/fleet_series.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/presets.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/series.hpp"
#include "telemetry/trace.hpp"
#include "tests/support/timeline_text.hpp"

/// The health-series sampler's hard contract, mirroring the flight
/// recorder's: simulation output is byte-identical with sampling on or
/// off. The sampler reads window aggregates the engines already computed
/// and writes them into a side table nothing else reads — pinned here on
/// fleet timelines (including the fault path), on campaign artifacts,
/// and on the jobs-count invariance of the series bytes themselves.

namespace greennfv::telemetry {
namespace {

class SeriesDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm(); }
  void TearDown() override { disarm(); }
  static void disarm() {
    series::set_enabled(false);
    trace::set_enabled(false);
    trace::reset();
    metrics::set_enabled(false);
    metrics::reset();
  }
};

TEST_F(SeriesDeterminismTest, FleetTimelineIdenticalSampledVsUnsampled) {
  for (const char* preset : {"fleet-smoke", "fault-smoke"}) {
    SCOPED_TRACE(preset);
    const scenario::ScenarioSpec spec = scenario::preset(preset);

    const orchestrator::FleetOrchestrator plain(spec);
    const std::string unsampled =
        orchestrator::timeline_to_text(plain.timeline(), spec.num_nodes);
    EXPECT_EQ(plain.timeline().series, nullptr)
        << "sampler must stay inert while the gate is off";

    series::set_enabled(true);
    const orchestrator::FleetOrchestrator recorded(spec);
    series::set_enabled(false);
    const std::string sampled =
        orchestrator::timeline_to_text(recorded.timeline(), spec.num_nodes);

    EXPECT_EQ(unsampled, sampled);
    ASSERT_NE(recorded.timeline().series, nullptr);
    EXPECT_EQ(recorded.timeline().series->num_rows(),
              recorded.timeline().windows.size());
    EXPECT_EQ(recorded.timeline().series->columns(),
              orchestrator::fleet_series_columns());
  }
}

/// Byte-exact serialization of a campaign report (raw IEEE-754 bits of
/// every result and telemetry sample) — the same artifact text the
/// trace-determinism and jobs-count tests pin.
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

campaign::CampaignSpec fleet_campaign(const std::string& name) {
  campaign::CampaignSpec spec;
  spec.name = name;
  spec.scenarios = {"fault-smoke"};
  spec.models = "baseline";
  spec.seeds = {1, 2};
  Config overrides;
  overrides.set("sweep.fleet.policy", "first-fit,energy-bestfit");
  spec.apply(overrides);
  return spec;
}

TEST_F(SeriesDeterminismTest, CampaignArtifactsIdenticalSampledVsUnsampled) {
  const campaign::CampaignSpec spec = fleet_campaign("series-determinism");

  campaign::CampaignRunner unsampled_runner(spec);
  const campaign::CampaignReport unsampled = unsampled_runner.run(/*jobs=*/4);

  series::set_enabled(true);
  campaign::CampaignRunner sampled_runner(spec);
  const campaign::CampaignReport sampled = sampled_runner.run(/*jobs=*/4);

  EXPECT_EQ(unsampled.executed, 4);
  EXPECT_EQ(sampled.executed, 4);
  EXPECT_EQ(artifacts_text(unsampled), artifacts_text(sampled));
  for (const campaign::RunResult& run : sampled.runs) {
    EXPECT_NE(run.fleet_series, nullptr) << run.run_id;
  }
  for (const campaign::RunResult& run : unsampled.runs) {
    EXPECT_EQ(run.fleet_series, nullptr) << run.run_id;
  }
}

TEST_F(SeriesDeterminismTest, SeriesBytesInvariantUnderJobsCount) {
  // The series rides the same parallel_for range as the runs themselves,
  // so its bytes must not depend on scheduling either.
  const campaign::CampaignSpec spec = fleet_campaign("series-jobs");

  series::set_enabled(true);
  campaign::CampaignRunner serial_runner(spec);
  const campaign::CampaignReport serial = serial_runner.run(/*jobs=*/1);
  campaign::CampaignRunner parallel_runner(spec);
  const campaign::CampaignReport parallel = parallel_runner.run(/*jobs=*/4);

  std::map<std::string, std::string> serial_series;
  for (const campaign::RunResult& run : serial.runs) {
    ASSERT_NE(run.fleet_series, nullptr) << run.run_id;
    serial_series[run.run_id] = run.fleet_series->to_csv();
  }
  ASSERT_EQ(serial_series.size(), 4u);
  for (const campaign::RunResult& run : parallel.runs) {
    ASSERT_NE(run.fleet_series, nullptr) << run.run_id;
    ASSERT_TRUE(serial_series.count(run.run_id)) << run.run_id;
    EXPECT_EQ(serial_series[run.run_id], run.fleet_series->to_csv())
        << run.run_id;
  }
}

}  // namespace
}  // namespace greennfv::telemetry
