/// Fleet history build benchmark: how fast the indexed window-loop engine
/// builds a fleet history, in events/sec. The default scale is the
/// mega-fleet preset (10k nodes, ~1.05M arrivals over 420 windows); the
/// window-synchronous reference engine is timed on a reduced geometry
/// (500 nodes, ~50k arrivals — it is O(nodes x windows x roster scans)
/// and would take hours at mega scale), where the two engines are also
/// checked bit-identical before any rate is reported. Writes
/// out/BENCH_fleet.json with events/sec and speedup_vs_reference so the
/// perf trajectory has a fleet data point PR over PR.
///
/// Keys:
///   smoke=0         1 = CI-sized run: skip the mega build, report
///                   events/sec from the 500-node comparison geometry
///   baseline=<path> compare against a checked-in BENCH_fleet.json;
///                   warns (exit 0) on >warn_pct% speedup regression
///   warn_pct=30
///   trace=<path>    write the headline build's Perfetto trace JSON
///   trace_check=0   1 = rebuild the headline geometry with the span
///                   tracer runtime-enabled and report its overhead
///                   (warn-only against overhead_budget_pct)
///   series_check=0  1 = rebuild the headline geometry with the
///                   per-window health series sampler enabled and report
///                   its overhead (same warn-only budget)
///   overhead_budget_pct=5
///
/// The flight recorder's counter registry is enabled for the whole
/// benchmark, so the Perf JSON carries an engine phase breakdown
/// (phase_build_s / phase_arrival_s / phase_consolidate_s /
/// phase_account_s) next to the headline events/sec.

#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "orchestrator/fleet.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/series.hpp"
#include "telemetry/trace.hpp"
#include "tests/support/fleet_reference.hpp"
#include "tests/support/timeline_text.hpp"

using namespace greennfv;
using namespace greennfv::orchestrator;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Discrete events in a built history: every placement attempt, holding
/// expiry, migration, wake-up, and per-window tick round.
double events_of(const FleetTimeline& timeline) {
  return static_cast<double>(timeline.arrivals) + timeline.rejected +
         timeline.departures + timeline.migrations + timeline.wakeups +
         static_cast<double>(timeline.windows.size());
}

double baseline_metric(const std::string& path, const std::string& key) {
  try {
    const Json json = Json::parse(read_file(path));
    if (!json.has(key)) return 0.0;
    return json.at(key).as_double();
  } catch (const std::exception& e) {
    std::printf("[baseline] unreadable (%s)\n", e.what());
    return 0.0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = Config::from_args(argc, argv);
  if (bench::handle_cli(config, {"smoke", "baseline", "warn_pct", "trace",
                                 "trace_check", "series_check",
                                 "overhead_budget_pct"}))
    return 0;
  bench::banner("bench_fleet", "fleet history build throughput", config);
  bench::Perf perf("fleet");

  const bool smoke = config.get_bool("smoke", false);
  telemetry::metrics::set_enabled(true);

  // Comparison geometry: mega-fleet shape shrunk to where the reference
  // engine is still timeable (~50k arrivals across 500 nodes).
  scenario::ScenarioSpec small = scenario::preset("mega-fleet");
  small.num_nodes = 500;
  small.fleet.arrival_rate = 120.0;

  // --- indexed engine vs window-synchronous reference (reduced scale) ------
  const auto small_start = std::chrono::steady_clock::now();
  FleetOrchestrator small_engine(small);
  const double small_s = seconds_since(small_start);
  const double small_events = events_of(small_engine.timeline());

  const auto ref_start = std::chrono::steady_clock::now();
  const FleetTimeline reference = build_reference_timeline(small);
  const double ref_s = seconds_since(ref_start);

  if (timeline_to_text(small_engine.timeline(), small.num_nodes) !=
      timeline_to_text(reference, small.num_nodes)) {
    GNFV_LOG_ERROR("bench_fleet")
        << "FATAL: indexed engine diverged from the reference engine on the"
           " comparison geometry — throughput numbers would be"
           " meaningless; run the golden/determinism suites";
    return 1;
  }
  const double speedup = ref_s / small_s;
  std::printf("comparison (%d nodes, %.0f events): bit-identical; indexed "
              "engine %.2f s vs reference %.2f s  (%.1fx)\n",
              small.num_nodes, small_events, small_s, ref_s, speedup);

  // --- headline scale -------------------------------------------------------
  // Counters reset here so the phase breakdown reflects the headline
  // build alone, not the comparison pass above.
  telemetry::metrics::reset();
  double wall_s = small_s;
  double events = small_events;
  scenario::ScenarioSpec spec = small;
  if (smoke) {
    // Re-run the smoke geometry under the (now-reset) registry so the
    // phase breakdown covers the reported build.
    const auto start = std::chrono::steady_clock::now();
    const FleetOrchestrator engine(small);
    wall_s = seconds_since(start);
    events = events_of(engine.timeline());
  }
  if (!smoke) {
    spec = scenario::preset("mega-fleet");
    const auto start = std::chrono::steady_clock::now();
    const FleetOrchestrator engine(spec);
    wall_s = seconds_since(start);
    events = events_of(engine.timeline());
    const FleetTimeline& t = engine.timeline();
    std::printf("mega-fleet: %d arrivals (%d rejected), %d departures, %d "
                "migrations, %d wakeups over %zu windows\n",
                t.arrivals, t.rejected, t.departures, t.migrations,
                t.wakeups, t.windows.size());
  }
  const double rate = events / wall_s;
  std::printf("%s: %.0f events in %.2f s  = %.0f events/s\n",
              smoke ? "smoke geometry" : "mega-fleet", events, wall_s, rate);

  perf.add_windows(static_cast<double>(spec.fleet.horizon_windows));
  perf.add_metric("nodes", static_cast<double>(spec.num_nodes));
  perf.add_metric("events", events);
  perf.add_metric("events_per_sec", rate);
  perf.add_metric("build_wall_s", wall_s);
  perf.add_metric("reference_wall_s", ref_s);
  perf.add_metric("speedup_vs_reference", speedup);

  // --- flight-recorder phase breakdown --------------------------------------
  // Span timers accumulate whenever metrics are on (tracing itself stays
  // off), so the headline build's time splits by engine phase for free.
  const telemetry::metrics::Snapshot snap = telemetry::metrics::snapshot();
  const double build_ns = snap.value("fleet.phase.build_ns");
  const double arrival_ns = snap.value("fleet.phase.arrival_ns");
  const double consolidate_ns = snap.value("fleet.phase.consolidate_ns");
  const double account_ns = snap.value("fleet.phase.account_ns");
  perf.add_metric("phase_build_s", build_ns / 1e9);
  perf.add_metric("phase_arrival_s", arrival_ns / 1e9);
  perf.add_metric("phase_consolidate_s", consolidate_ns / 1e9);
  perf.add_metric("phase_account_s", account_ns / 1e9);
  if (build_ns > 0.0) {
    std::printf("phase breakdown: arrival %.0f%%, consolidate %.0f%%, "
                "account %.0f%% of %.2f s build (%.0f departures)\n",
                100.0 * arrival_ns / build_ns,
                100.0 * consolidate_ns / build_ns,
                100.0 * account_ns / build_ns, build_ns / 1e9,
                snap.value("fleet.events.departure"));
  }

  // --- optional traced rebuild: Perfetto artifact + overhead gate -----------
  const std::string trace_path_arg = config.get_string("trace", "");
  const bool trace_check = config.get_bool("trace_check", false);
  if (!trace_path_arg.empty() || trace_check) {
    telemetry::trace::set_enabled(true);
    const auto traced_start = std::chrono::steady_clock::now();
    const FleetOrchestrator traced_engine(spec);
    const double traced_s = seconds_since(traced_start);
    telemetry::trace::set_enabled(false);
    (void)traced_engine;
    if (!trace_path_arg.empty()) {
      const std::string path = trace_path_arg.find('/') == std::string::npos
                                   ? out_path(trace_path_arg)
                                   : trace_path_arg;
      telemetry::trace::write_json(path);
      std::printf("[trace] wrote %s (%zu events, %llu dropped)\n",
                  path.c_str(), telemetry::trace::recorded(),
                  static_cast<unsigned long long>(
                      telemetry::trace::dropped()));
    }
    if (trace_check) {
      const double budget_pct =
          config.get_double("overhead_budget_pct", 5.0);
      const double overhead_pct =
          wall_s > 0.0 ? 100.0 * (traced_s - wall_s) / wall_s : 0.0;
      perf.add_metric("trace_overhead_pct", overhead_pct);
      std::printf("[trace_check] traced build %.2f s vs %.2f s untraced "
                  "= %+.1f%% overhead (budget %.0f%%)\n",
                  traced_s, wall_s, overhead_pct, budget_pct);
      if (overhead_pct > budget_pct) {
        std::printf("WARNING: tracing overhead %.1f%% exceeds the %.0f%% "
                    "budget — span granularity is too fine for this "
                    "scale; warn-only, not failing the bench\n",
                    overhead_pct, budget_pct);
      }
    }
    telemetry::trace::reset();
  }

  // --- optional sampled rebuild: series overhead gate -----------------------
  // Same shape as trace_check: rebuild the headline geometry with the
  // per-window health sampler armed and compare wall clocks. The sampler
  // appends one 34-double row per accounting window into an arena, so
  // this should be deep inside the budget — the check exists to catch a
  // future column that accidentally does per-event work.
  if (config.get_bool("series_check", false)) {
    const double budget_pct = config.get_double("overhead_budget_pct", 5.0);
    telemetry::series::set_enabled(true);
    const auto sampled_start = std::chrono::steady_clock::now();
    const FleetOrchestrator sampled_engine(spec);
    const double sampled_s = seconds_since(sampled_start);
    telemetry::series::set_enabled(false);
    const auto& series = sampled_engine.timeline().series;
    if (series == nullptr) {
      GNFV_LOG_ERROR("bench_fleet")
          << "series_check: sampler enabled but timeline carries no"
             " series";
      return 1;
    }
    const double overhead_pct =
        wall_s > 0.0 ? 100.0 * (sampled_s - wall_s) / wall_s : 0.0;
    perf.add_metric("series_overhead_pct", overhead_pct);
    std::printf("[series_check] sampled build %.2f s vs %.2f s unsampled "
                "= %+.1f%% overhead (%zu windows x %zu columns, budget "
                "%.0f%%)\n",
                sampled_s, wall_s, overhead_pct, series->num_rows(),
                series->num_columns(), budget_pct);
    if (overhead_pct > budget_pct) {
      std::printf("WARNING: series sampling overhead %.1f%% exceeds the "
                  "%.0f%% budget — a column is doing per-event work; "
                  "warn-only, not failing the bench\n",
                  overhead_pct, budget_pct);
    }
  }

  // --- baseline regression check (warn, never fail) -------------------------
  // speedup_vs_reference is the comparison metric: both sides of the
  // ratio run on the current host in the current binary, so it stays
  // meaningful across machines. Absolute events/s are context only.
  const std::string baseline = config.get_string("baseline", "");
  if (!baseline.empty()) {
    const double warn_pct = config.get_double("warn_pct", 30.0);
    const double base_speedup =
        baseline_metric(baseline, "speedup_vs_reference");
    const double base_rate = baseline_metric(baseline, "events_per_sec");
    if (base_speedup <= 0.0) {
      std::printf("[baseline] %s has no speedup_vs_reference; skipping "
                  "comparison\n",
                  baseline.c_str());
    } else {
      const double delta_pct =
          100.0 * (speedup - base_speedup) / base_speedup;
      std::printf("[baseline] %s: %.1fx speedup (%.0f events/s); fresh "
                  "run %.1fx (%+.1f%%)\n",
                  baseline.c_str(), base_speedup, base_rate, speedup,
                  delta_pct);
      if (delta_pct < -warn_pct) {
        std::printf("WARNING: indexed-vs-reference speedup regressed %.1f%% "
                    "vs baseline (threshold %.0f%%) — the indexed engine is "
                    "losing its win; investigate before merging\n",
                    -delta_pct, warn_pct);
      }
    }
  }
  return 0;
}
