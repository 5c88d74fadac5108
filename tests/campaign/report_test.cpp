#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/aggregator.hpp"
#include "campaign/artifact_store.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "common/fs_util.hpp"
#include "telemetry/series.hpp"

/// The campaign report generator: cross-seed series aggregation math,
/// HTML escaping, and the end-to-end path from a real (tiny) fleet
/// campaign through generate_report to validators that must accept the
/// produced artifacts and reject tampered ones.

namespace greennfv::campaign {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::series::set_enabled(false); }
  void TearDown() override { telemetry::series::set_enabled(false); }
};

TEST_F(ReportTest, HtmlEscapeCoversMarkupAndQuotes) {
  EXPECT_EQ(html_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&#39;");
  EXPECT_EQ(html_escape("plain text 1.5"), "plain text 1.5");
  EXPECT_EQ(html_escape(""), "");
}

telemetry::SeriesTable two_column(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  telemetry::SeriesTable table({"x", "y"});
  for (std::size_t i = 0; i < a.size(); ++i) {
    table.append_row({a[i], b[i]});
  }
  return table;
}

TEST_F(ReportTest, AggregateSeriesComputesMeanAndCi) {
  const telemetry::SeriesTable s1 = two_column({1.0, 2.0}, {10.0, 20.0});
  const telemetry::SeriesTable s2 = two_column({3.0, 6.0}, {10.0, 20.0});
  const telemetry::SeriesTable s3 = two_column({5.0, 10.0}, {10.0, 20.0});
  const SeriesStats stats = aggregate_series({&s1, &s2, &s3});

  EXPECT_EQ(stats.seeds, 3u);
  ASSERT_EQ(stats.columns, (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(stats.mean.size(), 2u);
  ASSERT_EQ(stats.mean[0].size(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean[0][0], 3.0);
  EXPECT_DOUBLE_EQ(stats.mean[0][1], 6.0);
  EXPECT_DOUBLE_EQ(stats.mean[1][0], 10.0);
  EXPECT_DOUBLE_EQ(stats.mean[1][1], 20.0);
  // x window 0: values {1,3,5} — stddev 2, ci95 = t(df=2) * 2 / sqrt(3).
  const double expected_ci = t_critical_95(2) * 2.0 / std::sqrt(3.0);
  EXPECT_NEAR(stats.ci95[0][0], expected_ci, 1e-12);
  // y is constant across seeds: ci95 collapses to 0.
  EXPECT_DOUBLE_EQ(stats.ci95[1][0], 0.0);
  EXPECT_DOUBLE_EQ(stats.ci95[1][1], 0.0);

  const Json json = stats.to_json();
  EXPECT_EQ(json.at("schema").as_string(), "greennfv.cellseries.v1");
  EXPECT_EQ(json.at("windows").as_double(), 2.0);
}

TEST_F(ReportTest, AggregateSeriesSingleSeedHasZeroCi) {
  const telemetry::SeriesTable s1 = two_column({4.0}, {8.0});
  const SeriesStats stats = aggregate_series({&s1});
  EXPECT_EQ(stats.seeds, 1u);
  EXPECT_DOUBLE_EQ(stats.mean[0][0], 4.0);
  EXPECT_DOUBLE_EQ(stats.ci95[0][0], 0.0);
}

TEST_F(ReportTest, AggregateSeriesRejectsMismatchedInputs) {
  const telemetry::SeriesTable s1 = two_column({1.0}, {2.0});
  const telemetry::SeriesTable s2 = two_column({1.0, 2.0}, {2.0, 3.0});
  EXPECT_EQ(aggregate_series({}).seeds, 0u);  // empty cell: empty stats
  EXPECT_THROW((void)aggregate_series({&s1, nullptr}),
               std::invalid_argument);
  EXPECT_THROW((void)aggregate_series({&s1, &s2}), std::invalid_argument);
  telemetry::SeriesTable other({"x", "z"});
  other.append_row({1.0, 2.0});
  EXPECT_THROW((void)aggregate_series({&s1, &other}),
               std::invalid_argument);
}

/// Runs a 2-cell x 2-seed fault-smoke campaign with sampling on into a
/// scratch store and returns the campaign directory.
std::string run_tiny_campaign(const std::string& tag) {
  const std::string root = testing::TempDir() + "/report_test_" + tag;
  std::filesystem::remove_all(root);

  CampaignSpec spec;
  spec.name = "report-tiny";
  spec.scenarios = {"fault-smoke"};
  spec.models = "baseline";
  spec.seeds = {1, 2};
  Config overrides;
  overrides.set("sweep.fleet.policy", "first-fit,energy-bestfit");
  spec.apply(overrides);

  const ArtifactStore store(root, spec.name);
  CampaignRunner runner(spec, &store);
  telemetry::series::set_enabled(true);
  const CampaignReport report = runner.run(/*jobs=*/2);
  telemetry::series::set_enabled(false);
  EXPECT_EQ(report.executed, 4);
  EXPECT_EQ(report.failed, 0);
  return store.dir();
}

TEST_F(ReportTest, GenerateReportEndToEndPassesItsOwnValidators) {
  const std::string dir = run_tiny_campaign("e2e");
  const std::string html_path = dir + "/report.html";
  const Json model = generate_report(dir, html_path);

  EXPECT_TRUE(validate_report_model(model).empty())
      << validate_report_model(model).front();
  EXPECT_EQ(model.at("runs").size(), 4u);
  ASSERT_EQ(model.at("cells").size(), 2u);
  for (const Json& cell : model.at("cells").elements()) {
    ASSERT_TRUE(cell.at("series").is_object())
        << cell.at("cell_id").as_string();
    EXPECT_EQ(cell.at("seeds").as_double(), 2.0);
  }

  // The written artifacts round-trip through the same validators the CI
  // tier and `run_report validate=` use.
  const Json written = Json::parse(read_file(dir + "/report.json"));
  EXPECT_TRUE(validate_report_model(written).empty());
  const std::string html = read_file(html_path);
  EXPECT_TRUE(validate_report_html(html).empty())
      << validate_report_html(html).front();

  // Per-run side artifacts validate too.
  const Json& run0 = model.at("runs").at(0);
  const std::string run_id = run0.at("run_id").as_string();
  EXPECT_TRUE(run0.at("has_series").as_bool());
  const Json series_json =
      Json::parse(read_file(dir + "/runs/" + run_id + ".series.json"));
  EXPECT_TRUE(validate_series_json(series_json).empty())
      << validate_series_json(series_json).front();
  const std::string series_csv =
      read_file(dir + "/runs/" + run_id + ".series.csv");
  EXPECT_TRUE(validate_series_csv(series_csv).empty())
      << validate_series_csv(series_csv).front();
}

TEST_F(ReportTest, ValidatorsRejectTamperedArtifacts) {
  const std::string dir = run_tiny_campaign("tamper");
  const Json model = generate_report(dir, dir + "/report.html");
  const std::string html = read_file(dir + "/report.html");

  // Version marker stripped: a renderer change must bump the schema.
  std::string no_marker = html;
  const std::size_t at = no_marker.find("greennfv-report:v1");
  ASSERT_NE(at, std::string::npos);
  no_marker.erase(at, 5);
  EXPECT_FALSE(validate_report_html(no_marker).empty());

  // Injected script: the dashboard contract is script-free.
  EXPECT_FALSE(
      validate_report_html(html + "<script>alert(1)</script>").empty());

  // Wrong schema tag on a series document.
  Json bad_series = Json::parse(
      read_file(dir + "/runs/" +
                model.at("runs").at(0).at("run_id").as_string() +
                ".series.json"));
  bad_series.set("schema", "greennfv.series.v999");
  EXPECT_FALSE(validate_series_json(bad_series).empty());

  // Truncated CSV column set.
  EXPECT_FALSE(validate_series_csv("window,t_s\n0,0\n").empty());

  // Model with a mutilated cell series.
  Json bad_model = model;
  EXPECT_TRUE(validate_report_model(bad_model).empty());
  bad_model.set("schema", "something.else");
  EXPECT_FALSE(validate_report_model(bad_model).empty());
}

TEST_F(ReportTest, ParetoIndexOutsideTheCellListThrows) {
  const std::string dir = run_tiny_campaign("pareto");
  const Json model = build_report_model(dir);
  ASSERT_EQ(model.at("summary").at("cells").size(), 2u);
  EXPECT_NO_THROW((void)render_report_html(model));

  // A manifest is an input: a front naming cell 40000 of 2 (or half a
  // cell) must be rejected, not read past the cell list.
  for (const double index : {40000.0, 0.5}) {
    Json pareto = Json::array();
    pareto.push_back(0);
    pareto.push_back(index);
    Json summary = model.at("summary");
    summary.set("pareto", pareto);
    Json bad = model;
    bad.set("summary", summary);
    EXPECT_THROW((void)render_report_html(bad), std::invalid_argument)
        << index;
  }
}

TEST_F(ReportTest, BuildReportModelWithoutSeriesStillRenders) {
  // A campaign run without sampling has no series artifacts: the model
  // must carry null cell series and the dashboard must still validate
  // (it renders the summary + Pareto sections and says how to get
  // series next time).
  const std::string root = testing::TempDir() + "/report_test_noseries";
  std::filesystem::remove_all(root);
  CampaignSpec spec;
  spec.name = "report-noseries";
  spec.scenarios = {"fault-smoke"};
  spec.models = "baseline";
  spec.seeds = {1};
  const ArtifactStore store(root, spec.name);
  CampaignRunner runner(spec, &store);
  const CampaignReport report = runner.run(/*jobs=*/1);
  ASSERT_EQ(report.failed, 0);

  const Json model = generate_report(store.dir(), store.dir() + "/r.html");
  EXPECT_TRUE(validate_report_model(model).empty())
      << validate_report_model(model).front();
  for (const Json& cell : model.at("cells").elements()) {
    EXPECT_TRUE(cell.at("series").is_null());
  }
  for (const Json& run : model.at("runs").elements()) {
    EXPECT_FALSE(run.at("has_series").as_bool());
  }
  const std::string html = read_file(store.dir() + "/r.html");
  EXPECT_TRUE(validate_report_html(html).empty())
      << validate_report_html(html).front();
  EXPECT_NE(html.find("series=1"), std::string::npos);
}

TEST_F(ReportTest, BuildReportModelThrowsWithoutManifest) {
  const std::string root = testing::TempDir() + "/report_test_empty";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  EXPECT_THROW((void)build_report_model(root), std::invalid_argument);
}

}  // namespace
}  // namespace greennfv::campaign
