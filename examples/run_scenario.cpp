/// Run any named or file-loaded scenario against the scheduler roster
/// through orchestrator::FleetOrchestrator and print the uniform
/// EvalReport — the one declarative entry point for every workload,
/// scheduler, and figure. A static scenario (fleet.enabled=0) is the fleet
/// engine with nothing arriving; fleet scenarios add the history block.
///
///   build/example_run_scenario                         # paper-default
///   build/example_run_scenario scenario=flash-crowd
///   build/example_run_scenario scenario=heterogeneous-cluster
///       models=baseline,heuristics,ee-pstate        (one line)
///   build/example_run_scenario scenario_file=my.scenario episodes=200
///   build/example_run_scenario scenario=fleet-smoke    # dynamic fleet
///       models=baseline,ee-pstate                   (one line)
///   build/example_run_scenario list=1                  # preset table
///   build/example_run_scenario scenario=overload save=overload.scenario
///   build/example_run_scenario help=1                  # accepted keys
///
/// Any scenario key overrides the preset/file value (seed=7 chains=4
/// profile=diurnal ...). models= picks a roster subset; the default runs
/// all seven Fig. 9 models (training budgets come from the scenario).
///
/// Flight recorder: trace=<path> records spans (engine phases, routing,
/// RL passes) and writes a Perfetto/chrome://tracing JSON; metrics=1
/// prints the counter registry after the run; metrics_out=<path> writes
/// the same snapshot as JSON; series=1 samples the per-window fleet
/// health series and series_out=<path> exports it (.json for JSON, CSV
/// otherwise — fleet scenarios only); log_level= overrides the stderr
/// log threshold (also via GREENNFV_LOG_LEVEL); validate_trace=<path>
/// checks an emitted trace (spans AND counter samples) and exits.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>

#include "common/fs_util.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"
#include "orchestrator/fleet.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/series.hpp"
#include "telemetry/trace.hpp"

using namespace greennfv;

namespace {

/// Parses and sanity-checks a Perfetto trace document: every traceEvent
/// must carry ph/ts/pid/tid/name, complete events need a finite dur, and
/// each thread's span-completion times (ts + dur) must be non-decreasing
/// in array order — spans append when they *close*, so nested spans
/// precede their parents but completion time is monotone per thread.
/// Returns 0 when healthy (the CI tier's proof the recorder emits a
/// loadable, ordered trace).
int validate_trace(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  const Json& events = doc.at("traceEvents");
  std::map<int, double> last_end_us;
  std::map<std::string, double> last_counter_value;
  std::size_t spans = 0;
  std::size_t counters = 0;
  for (const Json& event : events.elements()) {
    for (const char* key : {"ph", "ts", "pid", "tid", "name"}) {
      if (!event.has(key)) {
        GNFV_LOG_ERROR("run_scenario")
            << "trace " << path << ": event missing key '" << key << "'";
        return 2;
      }
    }
    const std::string ph = event.at("ph").as_string();
    const double ts = event.at("ts").as_double();
    if (!std::isfinite(ts) || ts < 0.0) {
      GNFV_LOG_ERROR("run_scenario")
          << "trace " << path << ": non-finite/negative ts";
      return 2;
    }
    if (ph == "C") {
      // Counter samples: non-empty name, finite value, and monotone
      // accumulation for the *_ns timer counters (they only ever add).
      const std::string& name = event.at("name").as_string();
      if (name.empty()) {
        GNFV_LOG_ERROR("run_scenario")
            << "trace " << path << ": counter sample with empty name";
        return 2;
      }
      const double value = event.at("args").at("value").as_double();
      if (!std::isfinite(value)) {
        GNFV_LOG_ERROR("run_scenario")
            << "trace " << path << ": counter '" << name
            << "' has non-finite value";
        return 2;
      }
      if (name.size() > 3 &&
          name.compare(name.size() - 3, 3, "_ns") == 0) {
        auto [it, fresh] = last_counter_value.emplace(name, value);
        if (!fresh) {
          if (value < it->second) {
            GNFV_LOG_ERROR("run_scenario")
                << "trace " << path << ": timer counter '" << name
                << "' decreased from " << it->second << " to " << value;
            return 2;
          }
          it->second = value;
        }
      }
      ++counters;
      continue;
    }
    if (ph != "X") {
      GNFV_LOG_ERROR("run_scenario")
          << "trace " << path << ": unexpected phase '" << ph << "'";
      return 2;
    }
    const double dur = event.at("dur").as_double();
    if (!std::isfinite(dur) || dur < 0.0) {
      GNFV_LOG_ERROR("run_scenario")
          << "trace " << path << ": span '"
          << event.at("name").as_string() << "' has bad dur";
      return 2;
    }
    const int tid = event.at("tid").as_integer<int>();
    const double end = ts + dur;
    auto [it, fresh] = last_end_us.emplace(tid, end);
    if (!fresh) {
      if (end < it->second) {
        GNFV_LOG_ERROR("run_scenario")
            << "trace " << path << ": tid " << tid << " span '"
            << event.at("name").as_string() << "' completes at " << end
            << " us, before prior " << it->second << " us";
        return 2;
      }
      it->second = end;
    }
    ++spans;
  }
  std::printf("trace %s: ok (%zu spans, %zu counter samples, %zu"
              " threads)\n",
              path.c_str(), spans, counters, last_end_us.size());
  return 0;
}

int run(const Config& config) {
  if (config.get_bool("list", false)) {
    std::printf("named scenarios:\n%s", scenario::preset_table().c_str());
    return 0;
  }
  if (scenario::print_help_if_requested(
          config, {"models", "list", "save", "csv", "trace", "metrics",
                   "metrics_out", "series", "series_out", "log_level",
                   "validate_trace"}))
    return 0;
  std::vector<std::string> keys = scenario::ScenarioSpec::known_keys();
  keys.insert(keys.end(), {"models", "list", "save", "csv", "trace",
                           "metrics", "metrics_out", "series", "series_out",
                           "log_level", "validate_trace", "help"});
  config.check_known(keys, scenario::ScenarioSpec::known_prefixes());

  if (const auto level = config.get("log_level"))
    set_log_level(log_level_from_name(*level));
  if (const auto path = config.get("validate_trace"))
    return validate_trace(*path);
  const auto trace_out = config.get("trace");
  const auto metrics_out = config.get("metrics_out");
  const bool metrics_on = config.get_bool("metrics", false);
  if (metrics_on || metrics_out) telemetry::metrics::set_enabled(true);
  if (trace_out) telemetry::trace::set_enabled(true);
  const auto series_out = config.get("series_out");
  const bool series_on = config.get_bool("series", false) || series_out;
  if (series_on) telemetry::series::set_enabled(true);

  const scenario::ScenarioSpec spec = scenario::resolve(config);
  if (const auto path = config.get("save")) {
    spec.save(*path);
    std::printf("wrote %s — rerun with scenario_file=%s\n", path->c_str(),
                path->c_str());
    return 0;
  }

  std::printf("scenario %s: %d node(s), %d chain(s), %d flow(s), %s"
              " profile, %s SLA, %d eval windows of %.1f s\n",
              spec.name.c_str(), spec.num_nodes, spec.num_chains,
              spec.num_flows,
              traffic::to_string(spec.profile.kind).c_str(),
              spec.sla().name().c_str(), spec.eval_windows, spec.window_s);

  std::vector<scenario::SchedulerFactory> roster =
      scenario::default_roster(spec);
  if (const auto models = config.get("models"))
    roster = scenario::filter_roster(roster, *models);

  orchestrator::FleetOrchestrator fleet(spec);
  if (spec.fleet.enabled) {
    // Dynamic fleet: online arrivals/departures, migration, power gating.
    std::printf("fleet: %d window horizon, policy %s, %.2f arrivals/window,"
                " migration %s, power gating %s\n",
                fleet.horizon(), spec.fleet.policy.c_str(),
                spec.fleet.arrival_rate,
                spec.fleet.migration ? "on" : "off",
                spec.fleet.power_gating ? "on" : "off");
    if (spec.topology.enabled) {
      std::printf("fleet: topology %s (%s routing)",
                  spec.topology.preset.c_str(), spec.topology.routing.c_str());
      if (spec.latency_sla_us > 0.0)
        std::printf(", latency SLA %.0f us", spec.latency_sla_us);
      std::printf("\n");
    }
  } else if (const int idle = fleet.timeline().windows.front().idle_nodes;
             idle > 0) {
    std::printf("placement left %d node(s) idle (charged at %.0f W)\n", idle,
                spec.node.p_idle_w);
  }
  orchestrator::FleetReport fleet_report = fleet.run(roster);
  const scenario::EvalReport& report = fleet_report.report;
  // The history block and health series describe fleet dynamics; a static
  // scenario has none to show.
  const std::string fleet_summary =
      spec.fleet.enabled ? fleet_report.fleet_summary() : "";
  const std::shared_ptr<const telemetry::SeriesTable> fleet_series =
      fleet.timeline().series;

  std::printf("\n");
  std::fputs(report.table().c_str(), stdout);
  if (!fleet_summary.empty()) {
    std::printf("\n");
    std::fputs(fleet_summary.c_str(), stdout);
  }

  if (const auto csv = config.get("csv")) {
    // Bare filenames are routed under out/ with every other artifact;
    // explicit paths are honoured as given.
    const std::string path =
        csv->find('/') == std::string::npos ? out_path(*csv) : *csv;
    report.series.to_csv(path);
    std::printf("\n[csv] wrote %s\n", path.c_str());
  }

  if (trace_out) {
    const std::string path = trace_out->find('/') == std::string::npos
                                 ? out_path(*trace_out)
                                 : *trace_out;
    telemetry::trace::write_json(path);
    std::printf("\n[trace] wrote %s (%zu events, %llu dropped) — load in"
                " ui.perfetto.dev or chrome://tracing\n",
                path.c_str(), telemetry::trace::recorded(),
                static_cast<unsigned long long>(
                    telemetry::trace::dropped()));
  }
  if (series_on) {
    if (fleet_series == nullptr) {
      std::printf("\n[series] nothing recorded — series sampling is"
                  " fleet-only (fleet.enabled scenarios)\n");
    } else if (series_out) {
      const std::string path = series_out->find('/') == std::string::npos
                                   ? out_path(*series_out)
                                   : *series_out;
      const bool as_json =
          path.size() > 5 &&
          path.compare(path.size() - 5, 5, ".json") == 0;
      if (as_json) {
        fleet_series->write_json(path);
      } else {
        fleet_series->write_csv(path);
      }
      std::printf("\n[series] wrote %s (%zu windows x %zu columns)\n",
                  path.c_str(), fleet_series->num_rows(),
                  fleet_series->num_columns());
    } else {
      std::printf("\n[series] recorded %zu windows x %zu columns — add"
                  " series_out=<path> to export\n",
                  fleet_series->num_rows(), fleet_series->num_columns());
    }
  }
  if (metrics_on) {
    std::printf("\n[metrics]\n%s", telemetry::metrics::table().c_str());
  }
  if (metrics_out) {
    const std::string path = metrics_out->find('/') == std::string::npos
                                 ? out_path(*metrics_out)
                                 : *metrics_out;
    write_file_atomic(path, telemetry::metrics::to_json().dump(1) + "\n");
    std::printf("\n[metrics] wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Config::from_args(argc, argv));
  } catch (const std::exception& e) {
    GNFV_LOG_ERROR("run_scenario") << e.what();
    return 2;
  }
}
