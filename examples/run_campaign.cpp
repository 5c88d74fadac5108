/// Run any named or file-loaded campaign — a parallel sweep over
/// scenarios x schedulers x seeds — and print per-cell statistics (mean,
/// stddev, 95% CI) plus the throughput-vs-energy Pareto front.
///
///   build/example_run_campaign                         # fig9 campaign
///   build/example_run_campaign list=1                  # preset table
///   build/example_run_campaign campaign=fig11-rates jobs=8
///   build/example_run_campaign campaign=ablation expand=1   # matrix only
///   build/example_run_campaign campaign=ci-campaign-smoke jobs=2
///   build/example_run_campaign campaign=fig9 save=my.campaign
///   build/example_run_campaign campaign_file=my.campaign fresh=1
///   build/example_run_campaign validate_manifest=out/fig9/manifest.json
///   build/example_run_campaign help=1                  # accepted keys
///
/// Sweep axes are "sweep.<scenario-key>=v1,v2,..." (any scenario key:
/// sweep.offered_gbps=5,10,20,40, sweep.sla=maxt,mine,ee...); plain
/// scenario keys apply to every run (episodes=6 seed=7...); seeds= /
/// auto_seeds= set the seed axis and models= filters the roster.
///
/// Artifacts land under out/<campaign>/: one runs/<run_id>.json per run
/// (metrics + telemetry) and a manifest.json with the aggregates. Runs
/// are resumed from artifacts by default — an interrupted sweep picks up
/// where it crashed, skipping completed runs; fresh=1 re-executes
/// everything. jobs=N runs up to N cells at a time with
/// ThreadPool::parallel_for (N <= 1 runs them inline; a value outside int
/// is an error); any N produces bit-identical results.

#include <cmath>
#include <cstdio>
#include <exception>

#include "campaign/presets.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "common/fs_util.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"
#include "scenario/presets.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/series.hpp"
#include "telemetry/trace.hpp"

using namespace greennfv;

namespace {

const std::vector<std::string>& cli_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> all = campaign::CampaignSpec::known_keys();
    for (const auto& key : scenario::ScenarioSpec::known_keys())
      if (key != "scenario" && key != "scenario_file") all.push_back(key);
    all.insert(all.end(), {"jobs", "fresh", "out", "save", "list", "expand",
                           "validate_manifest", "trace", "metrics",
                           "metrics_out", "series", "report", "timing",
                           "log_level", "help"});
    return all;
  }();
  return keys;
}

void print_help() {
  std::printf("accepted key=value arguments (plus sweep.<scenario-key>="
              "v1,v2,... axes\nand chainN=/flowN= indexed overrides):\n");
  for (const auto& key : cli_keys()) std::printf("  %s\n", key.c_str());
  std::printf("\nnamed campaigns (campaign=<name>):\n%s",
              campaign::preset_table().c_str());
  std::printf("\nnamed scenarios (scenarios=a,b,...):\n%s",
              scenario::preset_table().c_str());
}

/// Parses and sanity-checks a manifest: every aggregate field must be a
/// finite number. Returns 0 when healthy — the CI gate's crash-safe proof
/// that a campaign actually produced machine-readable statistics.
int validate_manifest(const std::string& path) {
  const Json manifest = Json::parse(read_file(path));
  const Json& summary = manifest.at("summary");
  int checked = 0;
  for (const Json& cell : summary.at("cells").elements()) {
    for (const char* metric :
         {"gbps", "energy_j", "power_w", "efficiency", "sla_satisfaction",
          "drop_fraction"}) {
      const Json& stats = cell.at(metric);
      for (const char* field : {"n", "mean", "stddev", "ci95"}) {
        const double value = stats.at(field).as_double();
        if (!std::isfinite(value)) {
          GNFV_LOG_ERROR("run_campaign")
              << "manifest " << path << ": cell "
              << cell.at("cell_id").as_string() << " " << metric << "."
              << field << " is not finite";
          return 2;
        }
        ++checked;
      }
    }
  }
  if (manifest.at("runs").size() !=
      manifest.at("matrix_size").as_integer<std::size_t>()) {
    GNFV_LOG_ERROR("run_campaign")
        << "manifest " << path << ": run list does not cover matrix";
    return 2;
  }
  std::printf("manifest %s: ok (%zu runs, %zu cells, %d finite fields)\n",
              path.c_str(), manifest.at("runs").size(),
              summary.at("cells").size(), checked);
  return 0;
}

int run(const Config& config) {
  if (config.get_bool("list", false)) {
    std::printf("named campaigns:\n%s", campaign::preset_table().c_str());
    return 0;
  }
  if (config.get_bool("help", false)) {
    print_help();
    return 0;
  }
  if (const auto manifest = config.get("validate_manifest"))
    return validate_manifest(*manifest);

  if (const auto level = config.get("log_level"))
    set_log_level(log_level_from_name(*level));
  // Flight recorder: trace= writes a whole-campaign Perfetto JSON (and
  // each run's slice lands next to its artifact as
  // runs/<run_id>.trace.json); metrics=1 prints the counter registry;
  // timing=1 prints the per-cell wall-clock table. None of these touch
  // run artifacts or the manifest — traced campaigns stay byte-identical.
  const auto trace_out = config.get("trace");
  const auto metrics_out = config.get("metrics_out");
  const bool metrics_on = config.get_bool("metrics", false);
  const bool timing_on = config.get_bool("timing", false);
  if (metrics_on || metrics_out) telemetry::metrics::set_enabled(true);
  if (trace_out) telemetry::trace::set_enabled(true);
  // series=1 samples the per-window fleet health series in every fleet
  // run (exported as runs/<run_id>.series.{csv,json}); report= renders
  // the HTML dashboard from the finished campaign directory. report=
  // implies series=1 — a dashboard without series panels is almost
  // always a mistake.
  const auto report_out = config.get("report");
  if (config.get_bool("series", false) || report_out) {
    telemetry::series::set_enabled(true);
  }

  // Key validation happens inside CampaignSpec::apply (the vocabulary is
  // open-ended via sweep.* and chainN=/flowN=); CLI-only keys are
  // stripped first.
  Config campaign_config = config;
  for (const char* key : {"jobs", "fresh", "out", "save", "list", "expand",
                          "validate_manifest", "trace", "metrics",
                          "metrics_out", "series", "report", "timing",
                          "log_level", "help"}) {
    Config stripped;
    for (const auto& [k, v] : campaign_config.entries())
      if (k != key) stripped.set(k, v);
    campaign_config = stripped;
  }
  const campaign::CampaignSpec spec = campaign::resolve(campaign_config);

  if (const auto path = config.get("save")) {
    spec.save(*path);
    std::printf("wrote %s — rerun with campaign_file=%s\n", path->c_str(),
                path->c_str());
    return 0;
  }

  const int jobs = config.get_int32("jobs", 1);
  const bool fresh = config.get_bool("fresh", false);
  const std::string out_root_dir = config.get_string("out", out_root());

  const campaign::ArtifactStore store(out_root_dir, spec.name);
  campaign::CampaignRunner runner(spec, &store);

  std::printf("campaign %s: %zu run(s) = %zu scenario(s)", spec.name.c_str(),
              runner.matrix().size(),
              spec.base ? std::size_t{1} : spec.scenarios.size());
  for (const auto& axis : spec.axes)
    std::printf(" x %zu %s", axis.values.size(), axis.key.c_str());
  std::printf(" x %zu seed(s); models=%s; jobs=%d\n",
              runner.matrix().empty()
                  ? std::size_t{0}
                  : spec.seeds_for(runner.matrix()[0].scenario.seed).size(),
              spec.models.empty() ? "<full roster>" : spec.models.c_str(),
              jobs);

  if (config.get_bool("expand", false)) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& entry : runner.matrix()) {
      std::string assignments;
      for (const auto& [key, value] : entry.assignments) {
        if (!assignments.empty()) assignments += " ";
        assignments += key + "=" + value;
      }
      rows.push_back(
          {format("%zu", entry.index), entry.scenario_name, assignments,
           format("%llu", static_cast<unsigned long long>(entry.seed))});
    }
    std::fputs(render_table({"#", "scenario", "assignments", "seed"}, rows)
                   .c_str(),
               stdout);
    return 0;
  }

  const campaign::CampaignReport report = runner.run(jobs, !fresh);

  std::printf("\n");
  std::fputs(report.summary.table().c_str(), stdout);
  std::printf("\npareto front (throughput vs energy):\n");
  for (const std::size_t index : report.summary.pareto) {
    const auto& cell = report.summary.cells[index];
    std::printf("  %s / %s: %.2f Gbps at %.0f J\n", cell.cell_id.c_str(),
                cell.model.c_str(), cell.gbps.mean, cell.energy_j.mean);
  }
  std::printf("\n%d executed, %d resumed; artifacts in %s\n",
              report.executed, report.resumed, store.dir().c_str());
  if (report.failed > 0) {
    std::printf("\n%d run(s) FAILED:\n", report.failed);
    for (const auto& run_result : report.runs) {
      if (!run_result.failed) continue;
      std::printf("  %s: %s\n", run_result.run_id.c_str(),
                  run_result.error.c_str());
    }
  }

  if (timing_on) {
    std::printf("\nper-cell wall clock (jobs=%d):\n%s", jobs,
                campaign::timing_table(report).c_str());
  }
  if (trace_out) {
    const std::string path = trace_out->find('/') == std::string::npos
                                 ? store.dir() + "/" + *trace_out
                                 : *trace_out;
    telemetry::trace::write_json(path);
    std::printf("\n[trace] wrote %s (%zu events, %llu dropped); per-run"
                " slices in %s/runs/*.trace.json\n",
                path.c_str(), telemetry::trace::recorded(),
                static_cast<unsigned long long>(
                    telemetry::trace::dropped()),
                store.dir().c_str());
  }
  if (metrics_on) {
    std::printf("\n[metrics]\n%s", telemetry::metrics::table().c_str());
  }
  if (metrics_out) {
    const std::string path = metrics_out->find('/') == std::string::npos
                                 ? store.dir() + "/" + *metrics_out
                                 : *metrics_out;
    write_file_atomic(path, telemetry::metrics::to_json().dump(1) + "\n");
    std::printf("\n[metrics] wrote %s\n", path.c_str());
  }
  if (report_out) {
    // Strictly post-hoc: the generator reads the manifest + series
    // artifacts back off disk — the same path run_report takes.
    const std::string html_path = report_out->find('/') == std::string::npos
                                      ? store.dir() + "/" + *report_out
                                      : *report_out;
    campaign::generate_report(store.dir(), html_path);
    std::printf("\n[report] wrote %s and %s/report.json\n",
                html_path.c_str(), store.dir().c_str());
  }
  // A campaign with failure records still aggregated and persisted what
  // survived, but the invocation must not report success.
  return report.failed > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Config::from_args(argc, argv));
  } catch (const std::exception& e) {
    GNFV_LOG_ERROR("run_campaign") << e.what();
    return 2;
  }
}
