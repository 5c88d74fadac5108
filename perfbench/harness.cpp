/// End-to-end scenario benchmark harness.
///
///   greennfv_perfbench workload=<name> seed=<n> seconds=<s> trace=<0|1>
///                      workdir=<dir> [size=full|tiny]
///   greennfv_perfbench selftest=1
///
/// One operation runs one workload instance end to end through the public
/// API — spec resolve, fleet history build, roster, per-node-window replay;
/// or campaign resolve, expansion, parallel cells, artifacts and report —
/// and then checks its outputs from outside the program. Operations repeat
/// on the same inputs until `seconds` have passed. Each prints one
/// `@op {json}` line; a closing `@run {json}` line carries process-wide
/// figures. perfbench/run.py reduces the lines to the benchmark result.
///
/// With trace=1 every other operation is traced: the flight recorder and
/// the metrics registry are on, and the calls this harness makes into each
/// layer are wrapped (make through a timing wrapper, every Scheduler
/// through a forwarding decorator). After the operations a core-layer probe
/// times the public per-node calls on the workload's own rebuild inputs, so
/// the replay time splits into rebuild, advance and an explicit
/// unattributed remainder.
///
/// selftest=1 checks that the decorated roster is transparent: fleet-smoke
/// evaluates bit-identically with and without the wrappers.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/presets.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "common/config.hpp"
#include "common/fs_util.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"
#include "core/environment.hpp"
#include "core/nf_controller.hpp"
#include "core/scheduler.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/series.hpp"
#include "telemetry/trace.hpp"
#include "traffic/generator.hpp"

using namespace greennfv;

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
namespace mc = telemetry::metrics;
namespace trace = telemetry::trace;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Equal up to floating-point reassociation.
bool close(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Set-up is short next to an operation, and a single short interval reads
/// noisy; repeating it until the repeats add up to this much gives a
/// steady median.
constexpr double kSetupSampleSeconds = 0.2;
constexpr std::size_t kMaxSetupSamples = 5000;

/// Median of `first` and further runs of `setup`, repeated while they add
/// up to less than kSetupSampleSeconds.
template <typename Setup>
double setup_median(double first, const Setup& setup) {
  std::vector<double> samples = {first};
  double total = first;
  while (total < kSetupSampleSeconds && samples.size() < kMaxSetupSamples) {
    const auto start = Clock::now();
    setup();
    samples.push_back(seconds_since(start));
    total += samples.back();
  }
  return median(std::move(samples));
}

// --- workloads ---------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "replay-churn", "trained-smoke", "fabric-build", "campaign-mix"};
  return names;
}

/// Workload geometry. `kFull` is what the benchmark measures; `kTiny`
/// keeps every layer and check of a workload but runs in about a second
/// (the self-test).
struct Sizes {
  int churn_nodes;
  int churn_rate;
  int churn_horizon;
  int smoke_episodes;
  int smoke_horizon;
  int fabric_nodes;
  int fabric_rate;
  int fabric_windows;
  int campaign_seeds;
};

constexpr Sizes kFull{500, 120, 40, 200, 20, 200, 50, 140, 30};
constexpr Sizes kTiny{60, 15, 12, 4, 10, 40, 10, 30, 1};

/// The spec overrides of a fleet workload. The workload seed is the
/// scenario seed: it drives arrivals, holding times, flows, faults and
/// every node's traffic.
Config fleet_config(const std::string& workload, const Sizes& size,
                    std::uint64_t seed) {
  Config config;
  const auto set = [&config](const char* key, long long value) {
    config.set(key, std::to_string(value));
  };
  if (workload == "replay-churn") {
    config.set("scenario", "mega-fleet");
    set("nodes", size.churn_nodes);
    set("fleet.arrival_rate", size.churn_rate);
    set("fleet.horizon", size.churn_horizon);
  } else if (workload == "trained-smoke") {
    config.set("scenario", "fleet-smoke");
    set("episodes", size.smoke_episodes);
    set("q_episodes", size.smoke_episodes);
    set("candidates", 1);
    set("fleet.horizon", size.smoke_horizon);
    // Static membership: the trained policies are keyed by (node, chain
    // count), so a churning history would make the training work — most
    // of this workload — vary with the seed.
    set("fleet.arrival_rate", 0);
  } else {  // fabric-build
    config.set("scenario", "mega-fleet");
    set("nodes", size.fabric_nodes);
    set("fleet.arrival_rate", size.fabric_rate);
    set("fleet.horizon", size.fabric_windows);
    // Capacities sized so the fabric carries the load: at the default
    // link rates most arrivals are rejected and the build does little.
    config.set("topology.enabled", "1");
    config.set("topology.preset", "leaf-spine");
    config.set("topology.core_gbps", "20000");
    config.set("topology.link_gbps", "400");
    config.set("fault.enabled", "1");
    config.set("fault.node_crash_rate", "0.002");
    config.set("fault.rack_outage_rate", "0.01");
    config.set("fault.link_fail_rate", "0.01");
    config.set("sla.latency", "60");
  }
  config.set("seed", std::to_string(seed));
  return config;
}

std::vector<scenario::SchedulerFactory> roster_for(
    const std::string& workload, const scenario::ScenarioSpec& spec) {
  if (workload == "replay-churn") {
    return scenario::filter_roster(scenario::default_roster(spec),
                                   "baseline,ee-pstate");
  }
  if (workload == "trained-smoke") return scenario::default_roster(spec);
  return {};
}

// --- layer wrappers ------------------------------------------------------------

/// What the wrapped roster did during one operation. Atomics: campaign
/// cells build and run schedulers on pool workers.
struct RosterProbe {
  bool timed = false;  ///< time decide() too (traced operations only)
  std::atomic<std::int64_t> make_ns{0};
  std::atomic<std::int64_t> make_calls{0};
  std::atomic<std::int64_t> fleet_make_ns{0};
  std::atomic<std::int64_t> decide_ns{0};
  std::atomic<std::int64_t> decide_calls{0};
  std::atomic<std::int64_t> fleet_decide_ns{0};
  std::atomic<std::int64_t> fleet_decide_calls{0};
  std::atomic<std::int64_t> resets{0};
};

/// Forwards every Scheduler call to the wrapped model unchanged, counting
/// (and, when the probe says so, timing) decide() and reset(). Every
/// node-window a replay advances calls decide() exactly once.
class ForwardingScheduler final : public core::Scheduler {
 public:
  ForwardingScheduler(std::unique_ptr<core::Scheduler> inner,
                      RosterProbe& probe, bool fleet)
      : inner_(std::move(inner)), probe_(probe), fleet_(fleet) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] std::vector<nfvsim::ChainKnobs> decide(
      const std::vector<core::ChainObservation>& obs,
      const std::vector<nfvsim::ChainKnobs>& current) override {
    probe_.decide_calls.fetch_add(1, std::memory_order_relaxed);
    if (fleet_)
      probe_.fleet_decide_calls.fetch_add(1, std::memory_order_relaxed);
    if (!probe_.timed) return inner_->decide(obs, current);
    const auto start = Clock::now();
    std::vector<nfvsim::ChainKnobs> knobs = inner_->decide(obs, current);
    const std::int64_t ns = ns_since(start);
    probe_.decide_ns.fetch_add(ns, std::memory_order_relaxed);
    if (fleet_) probe_.fleet_decide_ns.fetch_add(ns, std::memory_order_relaxed);
    return knobs;
  }

  [[nodiscard]] bool wants_cat() const override { return inner_->wants_cat(); }
  [[nodiscard]] nfvsim::SchedMode sched_mode() const override {
    return inner_->sched_mode();
  }
  void reset() override {
    probe_.resets.fetch_add(1, std::memory_order_relaxed);
    inner_->reset();
  }

 private:
  std::unique_ptr<core::Scheduler> inner_;
  RosterProbe& probe_;
  bool fleet_;
};

/// The roster with every make() timed and every scheduler decorated.
/// `fleet` marks schedulers built inside fleet runs (a campaign mixes fleet
/// and single-node cells).
std::vector<scenario::SchedulerFactory> wrap_roster(
    const std::vector<scenario::SchedulerFactory>& roster, RosterProbe& probe,
    bool fleet) {
  std::vector<scenario::SchedulerFactory> wrapped;
  for (const scenario::SchedulerFactory& entry : roster) {
    scenario::SchedulerFactory factory = entry;
    factory.make = [make = entry.make, &probe, fleet](
                       const core::EnvConfig& env, std::uint64_t seed)
        -> std::unique_ptr<core::Scheduler> {
      const auto start = Clock::now();
      std::unique_ptr<core::Scheduler> inner = make(env, seed);
      const std::int64_t ns = ns_since(start);
      probe.make_ns.fetch_add(ns);
      probe.make_calls.fetch_add(1);
      if (fleet) probe.fleet_make_ns.fetch_add(ns);
      return std::make_unique<ForwardingScheduler>(std::move(inner), probe,
                                                   fleet);
    };
    wrapped.push_back(std::move(factory));
  }
  return wrapped;
}

/// Arms the flight recorder and the metrics registry from zero.
void begin_trace() {
  mc::reset();
  trace::reset();
  mc::set_enabled(true);
  trace::set_enabled(true);
}

void end_trace() {
  trace::set_enabled(false);
  mc::set_enabled(false);
}

struct SpanTotals {
  double count = 0.0;
  double seconds = 0.0;
};

/// Recorded spans summed by name over every thread; `dropped` receives the
/// events lost to ring wraparound.
std::map<std::string, SpanTotals> span_totals(double* dropped) {
  std::map<std::string, SpanTotals> totals;
  const Json doc = trace::to_json();
  for (const Json& event : doc.at("traceEvents").elements()) {
    if (event.at("ph").as_string() != "X") continue;
    SpanTotals& total = totals[event.at("name").as_string()];
    total.count += 1.0;
    total.seconds += event.at("dur").as_double() * 1e-6;
  }
  *dropped = doc.at("otherData").at("dropped_events").as_double();
  return totals;
}

// --- one operation -------------------------------------------------------------

/// FNV-1a over the "%.17g" text of every simulated output: two operations
/// agree on the digest iff their outputs agree bit for bit.
class Digest {
 public:
  void add(double value) { add_text(format("%.17g;", value)); }
  void add(const std::string& text) {
    add_text(text);
    add_text(";");
  }
  [[nodiscard]] std::string hex() const {
    return format("%016llx", static_cast<unsigned long long>(hash_));
  }

 private:
  void add_text(const std::string& text) {
    for (const unsigned char c : text) {
      hash_ ^= c;
      hash_ *= 1099511628211ull;
    }
  }
  std::uint64_t hash_ = 14695981039346656037ull;
};

struct OpRecord {
  bool warmup = false;  ///< checked, but not measured
  bool traced = false;
  int units = 1;  ///< runs this operation covers (campaign cells)
  double wall_s = 0.0;
  double setup_s = 0.0;
  double node_windows = 0.0;  ///< simulated node-windows
  double sim_stage_s = 0.0;   ///< seconds of the stage that simulated them
  std::vector<std::string> failures;
  std::string digest;
  std::vector<std::pair<std::string, double>> sims;
  std::vector<std::pair<std::string, double>> layers;
  // Inputs of the replay attribution (traced operations).
  double replay_s = 0.0;
  double env_rebuilds = 0.0;
  double fleet_decide_calls = 0.0;
  double fleet_decide_s = 0.0;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void range(const std::string& what, double value, double lo, double hi) {
    check(std::isfinite(value) && value >= lo && value <= hi,
          format("%s = %.17g outside [%g, %g]", what.c_str(), value, lo, hi));
  }
  void sim(const std::string& name, double value, double lo, double hi) {
    sims.emplace_back(name, value);
    range(name, value, lo, hi);
  }
  void layer(const std::string& name, double value) {
    layers.emplace_back(name, value);
  }

  [[nodiscard]] Json to_json() const {
    Json json = Json::object();
    json.set("warmup", warmup);
    json.set("traced", traced);
    json.set("units", units);
    json.set("wall_s", wall_s);
    json.set("setup_s", setup_s);
    json.set("node_windows", node_windows);
    json.set("sim_stage_s", sim_stage_s);
    Json fails = Json::array();
    for (const std::string& failure : failures) fails.push_back(failure);
    json.set("failures", std::move(fails));
    json.set("digest", digest);
    Json sim_json = Json::object();
    for (const auto& [name, value] : sims) sim_json.set(name, value);
    json.set("sims", std::move(sim_json));
    Json layer_json = Json::object();
    for (const auto& [name, value] : layers) layer_json.set(name, value);
    json.set("layers", std::move(layer_json));
    return json;
  }
};

void check_result(OpRecord& op, const core::EvalResult& r,
                  const std::string& where) {
  const std::string at = where + " " + r.scheduler;
  op.range(at + " mean_gbps", r.mean_gbps, 0.0, 1e6);
  op.range(at + " mean_energy_j", r.mean_energy_j, 1e-12, 1e15);
  op.range(at + " mean_efficiency", r.mean_efficiency, 0.0, 1e9);
  op.range(at + " sla_satisfaction", r.sla_satisfaction, 0.0, 1.0);
  op.range(at + " drop_fraction", r.drop_fraction, 0.0, 1.0);
}

void digest_result(Digest& digest, const core::EvalResult& r) {
  digest.add(r.scheduler);
  for (const double v : {r.mean_gbps, r.mean_energy_j, r.mean_power_w,
                         r.mean_efficiency, r.sla_satisfaction,
                         r.drop_fraction, static_cast<double>(r.windows)}) {
    digest.add(v);
  }
}

/// Conservation and energy decomposition of a fleet history, checked from
/// outside: membership replayed from the deltas must hold exactly the live
/// chains, live chains must follow arrivals − departures − fault drops,
/// and the per-window energy terms must sum to the reported totals.
void check_timeline(OpRecord& op, const orchestrator::FleetOrchestrator& fleet,
                    Digest& digest) {
  const orchestrator::FleetTimeline& tl = fleet.timeline();
  const int horizon = fleet.horizon();
  if (static_cast<int>(tl.windows.size()) != horizon) {
    op.check(false, "timeline does not cover the horizon");
    return;
  }
  orchestrator::MembershipReplay replay(tl, tl.num_nodes);
  long long live = 0;
  long long arrivals = 0;
  long long departures = 0;
  long long rejected = 0;
  long long dropped = 0;
  double standby = 0.0;
  double link = 0.0;
  double charge_energy = 0.0;
  double charge_downtime = 0.0;
  for (int w = 0; w < horizon; ++w) {
    const orchestrator::FleetTimeline::Window& win =
        tl.windows[static_cast<std::size_t>(w)];
    (void)replay.advance();
    long long hosted = 0;
    for (const int n : replay.occupied())
      hosted += static_cast<long long>(replay.members(n).size());
    live += static_cast<long long>(win.arrivals.size()) -
            static_cast<long long>(win.departures.size()) -
            static_cast<long long>(win.fault_dropped.size());
    if (live != win.live_chains || hosted != win.live_chains) {
      op.check(false, format("window %d: %lld chains by arrivals-departures-"
                             "drops, %lld hosted, %d live",
                             w, live, hosted, win.live_chains));
      return;
    }
    arrivals += static_cast<long long>(win.arrivals.size());
    departures += static_cast<long long>(win.departures.size());
    rejected += win.rejected;
    dropped += static_cast<long long>(win.fault_dropped.size());
    standby += win.standby_energy_j;
    link += win.link_energy_j;
    for (const orchestrator::DowntimeCharge& charge : win.charges) {
      charge_energy += charge.energy_j;
      charge_downtime += charge.downtime_s;
    }
    for (const double v :
         {static_cast<double>(win.live_chains),
          static_cast<double>(win.active_nodes),
          static_cast<double>(win.asleep_nodes),
          static_cast<double>(win.down_nodes),
          static_cast<double>(win.latency_violations), win.standby_energy_j,
          win.link_energy_j}) {
      digest.add(v);
    }
  }
  op.check(arrivals == tl.arrivals && departures == tl.departures &&
               rejected == tl.rejected && dropped == tl.fault_dropped,
           "window event counts do not sum to the timeline totals");
  op.check(close(standby, tl.standby_energy_j),
           "window standby energy does not sum to the total");
  op.check(close(link, tl.link_energy_j),
           "window link energy does not sum to the total");
  op.check(close(charge_energy, tl.wake_energy_j + tl.migration_energy_j +
                                    tl.replace_energy_j),
           "downtime-charge energy != wake + migration + replace energy");
  op.check(close(charge_downtime, tl.downtime_s),
           "downtime charges do not sum to the total downtime");
  if (tl.series != nullptr) {
    const telemetry::SeriesTable& series = *tl.series;
    op.check(static_cast<int>(series.num_rows()) == horizon,
             "health series does not have one row per window");
    const std::size_t col = series.column_index("standby_energy_j");
    double series_standby = 0.0;
    for (std::size_t row = 0; row < series.num_rows(); ++row)
      series_standby += series.at(row, col);
    op.check(close(series_standby, tl.standby_energy_j),
             "health series standby energy != timeline total");
    for (const std::string& problem :
         campaign::validate_series_csv(series.to_csv())) {
      op.check(false, "health series: " + problem);
    }
  }
  for (const double v :
       {static_cast<double>(tl.arrivals), static_cast<double>(tl.departures),
        static_cast<double>(tl.rejected), static_cast<double>(tl.migrations),
        static_cast<double>(tl.wakeups), tl.standby_energy_j,
        tl.wake_energy_j, tl.migration_energy_j, tl.downtime_s,
        static_cast<double>(tl.net_rejected),
        static_cast<double>(tl.net_blocked), tl.link_energy_j,
        static_cast<double>(tl.node_crashes),
        static_cast<double>(tl.link_fails),
        static_cast<double>(tl.replaced),
        static_cast<double>(tl.fault_dropped),
        static_cast<double>(tl.rerouted), tl.replace_energy_j}) {
    digest.add(v);
  }
}

/// Each model's per-window energy against its parts — standby + link +
/// advanced nodes + downtime charges, exactly when per-node series are
/// recorded (fleets up to 64 nodes), as a lower bound otherwise — and the
/// window series against the reported mean.
void check_models(OpRecord& op, const orchestrator::FleetOrchestrator& fleet,
                  const std::vector<scenario::ModelReport>& models,
                  const telemetry::Recorder& series) {
  const orchestrator::FleetTimeline& tl = fleet.timeline();
  const int horizon = fleet.horizon();
  const double window_s = fleet.spec().window_s;
  for (const scenario::ModelReport& model : models) {
    const core::EvalResult& r = model.result;
    check_result(op, r, "fleet");
    op.check(r.windows == horizon, r.scheduler + ": windows != horizon");
    const std::string energy_name = model.prefix + "energy_j";
    if (!series.has(energy_name) ||
        static_cast<int>(series.series(energy_name).size()) != horizon) {
      op.check(false, r.scheduler + ": no per-window energy series");
      continue;
    }
    const TimeSeries& energy = series.series(energy_name);
    std::vector<std::vector<double>> node_energy;
    for (int n = 0; n < tl.num_nodes; ++n) {
      const std::string name = model.prefix + format("node%d_energy_j", n);
      if (!series.has(name)) continue;
      std::vector<double> by_window(static_cast<std::size_t>(horizon), 0.0);
      const TimeSeries& s = series.series(name);
      for (std::size_t i = 0; i < s.size(); ++i) {
        const auto w = static_cast<std::size_t>(
            std::llround(s.times()[i] / window_s));
        if (w < by_window.size()) by_window[w] = s.values()[i];
      }
      node_energy.push_back(std::move(by_window));
    }
    double total = 0.0;
    for (int w = 0; w < horizon; ++w) {
      const orchestrator::FleetTimeline::Window& win =
          tl.windows[static_cast<std::size_t>(w)];
      double charges = 0.0;
      for (const auto& charge : win.charges) charges += charge.energy_j;
      const double e = energy.values()[static_cast<std::size_t>(w)];
      total += e;
      double parts = win.standby_energy_j + win.link_energy_j;
      for (const auto& by_window : node_energy)
        parts += by_window[static_cast<std::size_t>(w)];
      const bool ok = node_energy.empty()
                          ? e >= (parts + charges) * (1.0 - 1e-9)
                          : close(e, parts + charges);
      if (!ok) {
        op.check(false, format("%s window %d: energy %.17g vs standby + link"
                               " + nodes + charges %.17g",
                               r.scheduler.c_str(), w, e, parts + charges));
        break;
      }
    }
    op.check(close(total, r.mean_energy_j * horizon),
             r.scheduler + ": window energies do not sum to the mean");
  }
}

/// Layer metrics the program's own counters and spans give, plus the
/// wrappers' make/decide/reset accounting.
void add_program_layers(OpRecord& op, const RosterProbe& probe,
                        double run_model_s) {
  const mc::Snapshot snap = mc::snapshot();
  const auto secs = [&snap](const char* name) {
    return snap.value(name) * 1e-9;
  };
  double dropped = 0.0;
  const std::map<std::string, SpanTotals> spans = span_totals(&dropped);
  const auto span = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const double make_s = probe.make_ns.load() * 1e-9;
  op.replay_s =
      run_model_s > 0.0 ? run_model_s - probe.fleet_make_ns.load() * 1e-9
                        : 0.0;
  op.env_rebuilds = snap.value("fleet.env_rebuilds");
  op.fleet_decide_calls = static_cast<double>(probe.fleet_decide_calls.load());
  op.fleet_decide_s = probe.fleet_decide_ns.load() * 1e-9;
  const double node_windows = snap.value("fleet.node_windows");
  const double queries = snap.value("fleet.placement.queries");
  const double train_step_s = secs("rl.phase.train_step_ns");

  op.layer("scenario.make_s", make_s);
  op.layer("scenario.make_calls",
           static_cast<double>(probe.make_calls.load()));
  op.layer("orchestrator.build.arrival_s", secs("fleet.phase.arrival_ns"));
  op.layer("orchestrator.build.consolidate_s",
           secs("fleet.phase.consolidate_ns"));
  op.layer("orchestrator.build.account_s", secs("fleet.phase.account_ns"));
  op.layer("orchestrator.build.recover_s", secs("fleet.phase.recover_ns"));
  op.layer("orchestrator.placement.candidates_per_query",
           queries > 0.0
               ? snap.value("fleet.placement.candidates_scanned") / queries
               : 0.0);
  op.layer("orchestrator.replay_s", op.replay_s);
  op.layer("orchestrator.env_rebuilds", op.env_rebuilds);
  op.layer("orchestrator.node_windows", node_windows);
  op.layer("orchestrator.rebuilds_per_node_window",
           node_windows > 0.0 ? op.env_rebuilds / node_windows : 0.0);
  // fleet.phase.measure_ns times each replay window including the
  // scheduler training make() does inside it; the replay time derived from
  // outside excludes make, so the gap shows what measure_ns over-reports.
  op.layer("orchestrator.measure_includes_make_s",
           op.replay_s > 0.0 ? secs("fleet.phase.measure_ns") - op.replay_s
                             : 0.0);
  op.layer("core.decide_s", probe.decide_ns.load() * 1e-9);
  op.layer("core.decide_calls",
           static_cast<double>(probe.decide_calls.load()));
  op.layer("core.resets", static_cast<double>(probe.resets.load()));
  op.layer("topology.commit_s", span("net/commit").seconds);
  op.layer("topology.commit_calls", span("net/commit").count);
  op.layer("topology.try_move_s", span("net/try_move").seconds);
  op.layer("topology.route_passes", snap.value("net.route_passes"));
  op.layer("rl.train_step_s", train_step_s);
  op.layer("rl.actor_s", secs("rl.phase.actor_ns"));
  op.layer("rl.critic_s", secs("rl.phase.critic_ns"));
  op.layer("rl.targets_s", secs("rl.phase.targets_ns"));
  op.layer("rl.soft_update_s", secs("rl.phase.soft_update_ns"));
  op.layer("rl.train_steps_per_s",
           train_step_s > 0.0 ? snap.value("rl.train_steps") / train_step_s
                              : 0.0);
  op.layer("rl.rollout_s", make_s - train_step_s);
  op.layer("telemetry.trace_dropped", dropped);
}

OpRecord run_fleet_op(const std::string& workload, const Sizes& size,
                      std::uint64_t seed, bool traced,
                      std::unique_ptr<orchestrator::FleetOrchestrator>* keep) {
  OpRecord op;
  op.traced = traced;
  RosterProbe probe;
  probe.timed = traced;
  const Config config = fleet_config(workload, size, seed);
  if (traced) begin_trace();

  const auto start = Clock::now();
  const scenario::ScenarioSpec spec = scenario::resolve(config);
  const double resolve_s = seconds_since(start);
  const auto build_start = Clock::now();
  auto fleet = std::make_unique<orchestrator::FleetOrchestrator>(spec);
  const double build_s = seconds_since(build_start);
  const std::vector<scenario::SchedulerFactory> roster =
      wrap_roster(roster_for(workload, spec), probe, true);
  telemetry::Recorder series;
  std::vector<scenario::ModelReport> models;
  double run_model_s = 0.0;
  for (const scenario::SchedulerFactory& entry : roster) {
    const auto model_start = Clock::now();
    models.push_back(fleet->run_model(entry, &series));
    run_model_s += seconds_since(model_start);
  }
  op.wall_s = seconds_since(start);
  if (traced) end_trace();

  op.setup_s = setup_median(resolve_s + build_s, [&config] {
    const orchestrator::FleetOrchestrator again(scenario::resolve(config));
  });
  if (roster.empty()) {
    // A build-only workload steps every node through every window.
    op.node_windows =
        static_cast<double>(spec.num_nodes) * fleet->horizon();
    op.sim_stage_s = build_s;
  } else {
    op.node_windows = static_cast<double>(probe.decide_calls.load());
    op.sim_stage_s = run_model_s - probe.make_ns.load() * 1e-9;
  }

  Digest digest;
  check_timeline(op, *fleet, digest);
  check_models(op, *fleet, models, series);
  for (const scenario::ModelReport& model : models)
    digest_result(digest, model.result);
  for (const std::string& name : series.series_names()) {
    digest.add(name);
    for (const double v : series.series(name).values()) digest.add(v);
  }
  const orchestrator::FleetTimeline& tl = fleet->timeline();
  if (models.size() >= 2) {
    // The last roster entry against Baseline (the first).
    const core::EvalResult& base = models.front().result;
    const core::EvalResult& last = models.back().result;
    op.sim("sim_gbps_vs_baseline", last.mean_gbps / base.mean_gbps, 0.0,
           1e3);
    op.sim("sim_efficiency_vs_baseline",
           last.mean_efficiency / base.mean_efficiency, 0.0, 1e3);
    op.sim("sim_sla_met", last.sla_satisfaction, 0.0, 1.0);
    op.sim("sim_drop_fraction", last.drop_fraction, 0.0, 1.0);
  } else {
    op.sim("sim_accept_fraction",
           tl.arrivals / static_cast<double>(tl.arrivals + tl.rejected), 0.0,
           1.0);
    op.sim("sim_latency_sla_met",
           tl.routed_chain_windows > 0
               ? 1.0 - static_cast<double>(
                           tl.latency_violation_chain_windows) /
                           static_cast<double>(tl.routed_chain_windows)
               : 1.0,
           0.0, 1.0);
    op.sim("sim_fleet_energy_j",
           tl.standby_energy_j + tl.link_energy_j + tl.wake_energy_j +
               tl.migration_energy_j + tl.replace_energy_j,
           0.0, 1e15);
  }
  op.digest = digest.hex();

  if (traced) {
    op.layer("scenario.resolve_s", resolve_s);
    op.layer("orchestrator.build_s", build_s);
    add_program_layers(op, probe, run_model_s);
    // No campaign layer runs in a fleet workload.
    for (const char* name :
         {"campaign.run_s", "campaign.work_s", "campaign.queue_wait_s",
          "campaign.critical_path_s", "campaign.parallel_efficiency",
          "campaign.report_s"}) {
      op.layer(name, 0.0);
    }
    op.layer("bench.unattributed_s",
             op.wall_s - resolve_s - build_s - run_model_s);
    // The wrappers against the program's own counter: every replayed
    // node-window is one decide() call, plus the unmeasured warmup windows
    // of the nodes occupied in the first window.
    if (!roster.empty()) {
      orchestrator::MembershipReplay replay(tl, tl.num_nodes);
      (void)replay.advance();
      double warmup = 0.0;
      for (const scenario::SchedulerFactory& entry : roster) {
        warmup += static_cast<double>(entry.warmup) *
                  static_cast<double>(replay.occupied().size());
      }
      op.check(op.fleet_decide_calls ==
                   mc::snapshot().value("fleet.node_windows") + warmup,
               "decide() calls != fleet.node_windows + warmup windows");
    }
  }
  *keep = std::move(fleet);
  return op;
}

/// Every aggregate in a campaign manifest is finite and the run list covers
/// the matrix (what `run_campaign validate_manifest=` checks).
void check_manifest(OpRecord& op, const std::string& path) {
  const Json manifest = Json::parse(read_file(path));
  for (const Json& cell : manifest.at("summary").at("cells").elements()) {
    for (const char* metric : {"gbps", "energy_j", "power_w", "efficiency",
                               "sla_satisfaction", "drop_fraction"}) {
      for (const char* field : {"n", "mean", "stddev", "ci95"}) {
        if (!std::isfinite(cell.at(metric).at(field).as_double())) {
          op.check(false, path + ": " + metric + "." + field +
                              " is not finite");
          return;
        }
      }
    }
  }
  op.check(manifest.at("runs").size() ==
               static_cast<std::size_t>(
                   manifest.at("matrix_size").as_double()),
           path + ": run list does not cover the matrix");
}

void check_problems(OpRecord& op, const std::string& what,
                    const std::vector<std::string>& problems) {
  for (const std::string& problem : problems)
    op.check(false, what + ": " + problem);
}

/// Two campaign presets, the non-fleet ExperimentRunner grid and the
/// fleet + fabric + fault grid, with Baseline added so every cell compares
/// against it. Heuristics' long warmup gives each cell enough work that the
/// artifact files a cell writes do not dominate: with cheaper cells the
/// file create/delete churn slowed successive operations on a disk-backed
/// checkout by half.
constexpr const char* kCampaigns[] = {"sla-frontier", "resilience-frontier"};
constexpr const char* kCampaignModels = "baseline,heuristics,ee-pstate";

OpRecord run_campaign_op(const Sizes& size, std::uint64_t seed, bool traced,
                         const std::string& workdir, int jobs,
                         scenario::ScenarioSpec* fleet_cell) {
  OpRecord op;
  op.traced = traced;
  RosterProbe probe;
  probe.timed = traced;
  const std::string root = workdir + "/campaigns";
  fs::remove_all(root);
  std::vector<Config> configs;
  for (const char* name : kCampaigns) {
    Config config;
    config.set("campaign", name);
    config.set("auto_seeds", std::to_string(size.campaign_seeds));
    config.set("models", kCampaignModels);
    config.set("seed", std::to_string(seed));
    configs.push_back(config);
  }
  if (traced) begin_trace();

  const auto start = Clock::now();
  std::vector<std::unique_ptr<campaign::ArtifactStore>> stores;
  std::vector<std::unique_ptr<campaign::CampaignRunner>> runners;
  for (const Config& config : configs) {
    const campaign::CampaignSpec spec = campaign::resolve(config);
    stores.push_back(
        std::make_unique<campaign::ArtifactStore>(root, spec.name));
    runners.push_back(std::make_unique<campaign::CampaignRunner>(
        spec, stores.back().get()));
  }
  const double setup_s = seconds_since(start);
  for (const auto& runner : runners) {
    const std::string models = runner->spec().models;
    runner->set_roster_provider(
        [&probe, models](const scenario::ScenarioSpec& spec) {
          return wrap_roster(
              scenario::filter_roster(scenario::default_roster(spec), models),
              probe, spec.fleet.enabled);
        });
  }
  const auto run_start = Clock::now();
  std::vector<campaign::CampaignReport> reports;
  for (const auto& runner : runners)
    reports.push_back(runner->run(jobs, /*resume=*/false));
  const double run_s = seconds_since(run_start);
  const auto report_start = Clock::now();
  std::vector<Json> report_models;
  for (const auto& store : stores) {
    report_models.push_back(campaign::generate_report(
        store->dir(), store->dir() + "/report.html"));
  }
  const double report_s = seconds_since(report_start);
  op.wall_s = seconds_since(start);
  if (traced) end_trace();
  op.setup_s = setup_median(setup_s, [&configs] {
    for (const Config& config : configs)
      (void)campaign::CampaignRunner(campaign::resolve(config)).matrix();
  });

  double work_s = 0.0;
  double wait_s = 0.0;
  double critical_s = 0.0;
  op.units = 0;
  Digest digest;
  // Ratios of sums over every run: a heavily faulted cell can leave a
  // single run's Baseline with no throughput at all.
  double base_gbps = 0.0;
  double last_gbps = 0.0;
  double base_efficiency = 0.0;
  double last_efficiency = 0.0;
  std::vector<double> sla_met;
  std::vector<double> drop;
  for (std::size_t c = 0; c < runners.size(); ++c) {
    const campaign::CampaignReport& report = reports[c];
    const campaign::ArtifactStore& store = *stores[c];
    op.units += static_cast<int>(report.runs.size());
    op.check(report.failed == 0,
             format("%s: %d failed cell(s)",
                    runners[c]->spec().name.c_str(), report.failed));
    double critical = 0.0;
    for (const campaign::RunTiming& timing : report.timings) {
      if (!timing.executed) continue;
      work_s += timing.wall_s;
      wait_s += timing.queue_wait_s;
      critical = std::max(critical, timing.queue_wait_s + timing.wall_s);
    }
    critical_s += critical;
    check_manifest(op, store.manifest_path());
    check_problems(op, store.dir() + "/report.json",
                   campaign::validate_report_model(report_models[c]));
    check_problems(op, store.dir() + "/report.html",
                   campaign::validate_report_html(
                       read_file(store.dir() + "/report.html")));
    for (const campaign::RunResult& run : report.runs) {
      digest.add(run.run_id);
      for (const scenario::ModelReport& model : run.report.models) {
        check_result(op, model.result, run.run_id);
        digest_result(digest, model.result);
      }
      if (run.report.models.size() >= 2) {
        const core::EvalResult& base = run.report.models.front().result;
        const core::EvalResult& last = run.report.models.back().result;
        base_gbps += base.mean_gbps;
        last_gbps += last.mean_gbps;
        base_efficiency += base.mean_efficiency;
        last_efficiency += last.mean_efficiency;
        sla_met.push_back(last.sla_satisfaction);
        drop.push_back(last.drop_fraction);
      }
      if (run.scenario_text.find("fleet.enabled=1") != std::string::npos) {
        const std::string csv = store.series_csv_path(run.run_id);
        const std::string json = store.series_json_path(run.run_id);
        if (!file_exists(csv) || !file_exists(json)) {
          op.check(false, run.run_id + ": series artifacts missing");
          continue;
        }
        check_problems(op, csv,
                       campaign::validate_series_csv(read_file(csv)));
        check_problems(op, json, campaign::validate_series_json(
                                     Json::parse(read_file(json))));
      }
    }
    digest.add(report.summary.to_json().dump());
  }
  const auto mean = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (const double v : values) sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  };
  op.sim("sim_gbps_vs_baseline", last_gbps / base_gbps, 0.0, 1e3);
  op.sim("sim_efficiency_vs_baseline", last_efficiency / base_efficiency, 0.0,
         1e3);
  op.sim("sim_sla_met", mean(sla_met), 0.0, 1.0);
  op.sim("sim_drop_fraction", mean(drop), 0.0, 1.0);
  op.digest = digest.hex();

  op.node_windows = static_cast<double>(probe.decide_calls.load());
  op.sim_stage_s = work_s - probe.make_ns.load() * 1e-9;

  if (traced) {
    const mc::Snapshot snap = mc::snapshot();
    op.layer("scenario.resolve_s", setup_s);
    op.layer("orchestrator.build_s",
             snap.value("fleet.phase.build_ns") * 1e-9);
    add_program_layers(op, probe,
                       snap.value("fleet.phase.run_model_ns") * 1e-9);
    op.layer("campaign.run_s", run_s);
    op.layer("campaign.work_s", work_s);
    op.layer("campaign.queue_wait_s", wait_s);
    op.layer("campaign.critical_path_s", critical_s);
    op.layer("campaign.parallel_efficiency",
             critical_s > 0.0 ? work_s / (jobs * critical_s) : 0.0);
    op.layer("campaign.report_s", report_s);
    op.layer("bench.unattributed_s", op.wall_s - setup_s - run_s - report_s);
  }
  *fleet_cell = runners.back()->matrix().front().scenario;
  return op;
}

// --- core-layer probe ------------------------------------------------------------

/// Mean per-call cost of the public calls behind one node rebuild and one
/// node-window advance, on the workload's own rebuild inputs.
struct CoreCosts {
  int samples = 0;
  double partition_us = 0.0;
  double controller_build_us = 0.0;
  double env_build_us = 0.0;     ///< NfvEnvironment + NfController
  double env_teardown_us = 0.0;  ///< destroying both again
  double first_window_us = 0.0;  ///< a fresh environment's first window
  double run_window_us = 0.0;    ///< every later window
  double next_window_us = 0.0;
};

CoreCosts probe_core_layer(const scenario::ScenarioSpec& spec,
                           const orchestrator::FleetTimeline& timeline,
                           int horizon) {
  std::vector<std::vector<std::string>> comps;
  comps.reserve(timeline.chains.size());
  for (const orchestrator::ChainInstance& chain : timeline.chains)
    comps.push_back(chain.nfs);

  // Every (node, membership) the replay rebuilds, in replay order.
  std::vector<std::pair<int, std::vector<int>>> inputs;
  orchestrator::MembershipReplay replay(timeline, timeline.num_nodes);
  std::vector<std::vector<int>> built(
      static_cast<std::size_t>(timeline.num_nodes));
  for (int w = 0; w < horizon; ++w) {
    for (const int n : replay.advance()) {
      const std::vector<int>& members = replay.members(n);
      std::vector<int>& current = built[static_cast<std::size_t>(n)];
      if (members == current) continue;
      current = members;
      if (!members.empty()) inputs.emplace_back(n, members);
    }
  }
  CoreCosts costs;
  if (inputs.empty()) return costs;

  // An even sample across the run, so early (sparse) and late (dense)
  // rebuilds weigh as they do in the replay. The sampled nodes stay live
  // together and advance round-robin, as the replay advances its occupied
  // nodes: a window then runs with the other nodes' state evicting its own
  // from cache, not on a hot single environment.
  constexpr std::size_t kSamples = 200;
  constexpr int kWindows = 3;
  const std::size_t stride =
      std::max<std::size_t>(1, inputs.size() / kSamples);
  struct Node {
    std::unique_ptr<core::BaselineScheduler> scheduler;
    std::unique_ptr<core::NfvEnvironment> env;
    std::unique_ptr<core::NfController> controller;
    std::vector<nfvsim::ChainKnobs> knobs;
  };
  std::vector<Node> nodes;
  std::int64_t partition_ns = 0;
  std::int64_t controller_ns = 0;
  std::int64_t env_ns = 0;
  std::int64_t teardown_ns = 0;
  std::int64_t first_window_ns = 0;
  std::int64_t window_ns = 0;
  std::int64_t next_ns = 0;
  std::int64_t nexts = 0;
  for (std::size_t i = 0; i < inputs.size(); i += stride) {
    const auto& [node, members] = inputs[i];
    auto start = Clock::now();
    const core::EnvConfig config = scenario::partition_node_env(
        spec, comps, timeline.flows, members, node);
    partition_ns += ns_since(start);

    start = Clock::now();
    {
      const auto built = core::make_eval_controller(
          config.spec, config.num_chains, config.chain_nfs);
      controller_ns += ns_since(start);
    }

    const std::uint64_t seed =
        scenario::node_eval_seed(spec, static_cast<std::size_t>(node));
    Node probe_node;
    probe_node.scheduler = std::make_unique<core::BaselineScheduler>(config.spec);
    start = Clock::now();
    probe_node.env = std::make_unique<core::NfvEnvironment>(config, seed);
    probe_node.controller = std::make_unique<core::NfController>(
        *probe_node.env, *probe_node.scheduler);
    env_ns += ns_since(start);
    probe_node.knobs = probe_node.env->last_knobs();
    nodes.push_back(std::move(probe_node));

    traffic::TrafficGenerator generator(config.flows, seed);
    const double dt = config.window_s / config.sub_windows;
    for (int k = 0; k < kWindows * config.sub_windows; ++k) {
      start = Clock::now();
      (void)generator.next_window(dt);
      next_ns += ns_since(start);
      ++nexts;
    }
  }
  for (int k = 0; k < kWindows; ++k) {
    for (Node& node : nodes) {
      const auto start = Clock::now();
      (void)node.env->run_window(node.knobs);
      (k == 0 ? first_window_ns : window_ns) += ns_since(start);
    }
  }
  for (Node& node : nodes) {
    const auto start = Clock::now();
    node.controller.reset();
    node.env.reset();
    teardown_ns += ns_since(start);
  }
  costs.samples = static_cast<int>(nodes.size());
  const auto per_call_us = [](std::int64_t ns, std::int64_t calls) {
    return calls > 0 ? static_cast<double>(ns) * 1e-3 / calls : 0.0;
  };
  costs.partition_us = per_call_us(partition_ns, costs.samples);
  costs.controller_build_us = per_call_us(controller_ns, costs.samples);
  costs.env_build_us = per_call_us(env_ns, costs.samples);
  costs.env_teardown_us = per_call_us(teardown_ns, costs.samples);
  costs.first_window_us = per_call_us(first_window_ns, costs.samples);
  costs.run_window_us =
      per_call_us(window_ns, costs.samples * (kWindows - 1));
  costs.next_window_us = per_call_us(next_ns, nexts);
  return costs;
}

/// Per-call costs times the program's counts: the replay splits into
/// rebuilds (partition, environment/controller construction and the old
/// runtime's teardown per fleet.env_rebuilds), advances (run_window +
/// decide per node-window) and what neither explains.
void add_core_layers(OpRecord& op, const CoreCosts& costs,
                     double trace_overhead_pct) {
  op.layer("scenario.partition_us", costs.partition_us);
  op.layer("nfvsim.controller_build_us", costs.controller_build_us);
  op.layer("core.env_build_us", costs.env_build_us);
  op.layer("core.env_teardown_us", costs.env_teardown_us);
  op.layer("core.first_window_us", costs.first_window_us);
  op.layer("core.run_window_us", costs.run_window_us);
  op.layer("traffic.next_window_us", costs.next_window_us);
  const double rebuild_s = op.env_rebuilds *
                           (costs.partition_us + costs.env_build_us +
                            costs.env_teardown_us) *
                           1e-6;
  // A rebuilt node's first window runs on a fresh environment.
  const double advance_s =
      (op.env_rebuilds * costs.first_window_us +
       (op.fleet_decide_calls - op.env_rebuilds) * costs.run_window_us) *
          1e-6 +
      op.fleet_decide_s;
  op.layer("orchestrator.replay.rebuild_s", rebuild_s);
  op.layer("orchestrator.replay.advance_s", advance_s);
  op.layer("orchestrator.replay.unattributed_s",
           op.replay_s - rebuild_s - advance_s);
  op.layer("telemetry.trace_overhead_pct", trace_overhead_pct);
}

int run_workload(const Config& args) {
  const std::string workload = args.get_string("workload", "");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end())
    throw std::invalid_argument("unknown workload '" + workload + "'");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace_run = args.get_bool("trace", false);
  const std::string workdir = args.get_string("workdir", ".");
  const std::string size_name = args.get_string("size", "full");
  if (size_name != "full" && size_name != "tiny")
    throw std::invalid_argument("size must be full or tiny");
  const Sizes& size = size_name == "tiny" ? kTiny : kFull;
  const bool campaign_mix = workload == "campaign-mix";
  // Health-series sampling is part of these two workloads' definition.
  telemetry::series::set_enabled(workload == "fabric-build" || campaign_mix);
  // Trace rings are allocated per thread and kept for the process: one big
  // ring for the fleet workloads' single thread; small ones for campaign
  // pool workers, which each record only their own cells.
  trace::set_thread_capacity(campaign_mix ? 16384 : std::size_t{1} << 18);
  // Half the cores: a pool as wide as the machine stalls whenever anything
  // else runs on the host, and campaign timings then swing between runs.
  const int jobs = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()) / 2, 1, 4);

  std::vector<OpRecord> ops;
  std::unique_ptr<orchestrator::FleetOrchestrator> last_fleet;
  scenario::ScenarioSpec fleet_cell;
  // The first operation warms caches and lazy set-up and is not measured;
  // trace runs then alternate traced and untraced operations, so the
  // tracing overhead compares operations measured under the same
  // conditions.
  Clock::time_point start = Clock::now();
  do {
    const bool warmup = ops.empty();
    const bool traced = trace_run && ops.size() % 2 == 1;
    if (ops.size() == 1) start = Clock::now();
    try {
      ops.push_back(campaign_mix
                        ? run_campaign_op(size, seed, traced, workdir, jobs,
                                          &fleet_cell)
                        : run_fleet_op(workload, size, seed, traced,
                                       &last_fleet));
    } catch (const std::exception& e) {
      end_trace();
      OpRecord failed;
      failed.traced = traced;
      failed.failures.push_back(std::string("exception: ") + e.what());
      ops.push_back(std::move(failed));
      break;
    }
    ops.back().warmup = warmup;
  } while (ops.size() < 2 || seconds_since(start) < seconds ||
           (trace_run && ops.size() < 3));

  CoreCosts costs;
  if (trace_run) {
    try {
      if (campaign_mix) {
        const orchestrator::FleetOrchestrator fleet(fleet_cell);
        costs = probe_core_layer(fleet.spec(), fleet.timeline(),
                                 fleet.horizon());
      } else if (last_fleet != nullptr) {
        costs = probe_core_layer(last_fleet->spec(), last_fleet->timeline(),
                                 last_fleet->horizon());
      }
    } catch (const std::exception& e) {
      ops.back().failures.push_back(std::string("core probe: ") + e.what());
    }
    std::vector<double> traced_wall;
    std::vector<double> untraced_wall;
    for (const OpRecord& op : ops) {
      if (!op.warmup)
        (op.traced ? traced_wall : untraced_wall).push_back(op.wall_s);
    }
    const double base = median(untraced_wall);
    const double overhead_pct =
        base > 0.0 ? (median(traced_wall) / base - 1.0) * 100.0 : 0.0;
    for (OpRecord& op : ops) {
      if (op.traced) add_core_layers(op, costs, overhead_pct);
    }
  }

  for (const OpRecord& op : ops)
    std::printf("@op %s\n", op.to_json().dump().c_str());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Json run = Json::object();
  run.set("workload", workload);
  run.set("jobs", jobs);
  run.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  run.set("probe_samples", costs.samples);
  std::printf("@run %s\n", run.dump().c_str());
  std::fflush(stdout);
  return 0;
}

// --- self-test -----------------------------------------------------------------

/// The decorated roster (timing wrapper + forwarding scheduler, tracer and
/// counters on) must evaluate fleet-smoke bit-identically to the plain one.
int selftest() {
  Config config;
  config.set("scenario", "fleet-smoke");
  const scenario::ScenarioSpec spec = scenario::resolve(config);
  orchestrator::FleetOrchestrator plain_fleet(spec);
  const orchestrator::FleetReport plain =
      plain_fleet.run(scenario::default_roster(spec));

  RosterProbe probe;
  probe.timed = true;
  begin_trace();
  orchestrator::FleetOrchestrator wrapped_fleet(spec);
  const orchestrator::FleetReport wrapped = wrapped_fleet.run(
      wrap_roster(scenario::default_roster(spec), probe, true));
  end_trace();

  std::vector<std::string> problems;
  const auto& a = plain.report.models;
  const auto& b = wrapped.report.models;
  if (a.size() != b.size()) problems.emplace_back("model count differs");
  for (std::size_t m = 0; m < std::min(a.size(), b.size()); ++m) {
    const core::EvalResult& x = a[m].result;
    const core::EvalResult& y = b[m].result;
    const double xs[] = {x.mean_gbps,       x.mean_energy_j,
                         x.mean_power_w,    x.mean_efficiency,
                         x.sla_satisfaction, x.drop_fraction};
    const double ys[] = {y.mean_gbps,       y.mean_energy_j,
                         y.mean_power_w,    y.mean_efficiency,
                         y.sla_satisfaction, y.drop_fraction};
    if (x.scheduler != y.scheduler || x.windows != y.windows ||
        std::memcmp(xs, ys, sizeof xs) != 0) {
      problems.push_back(x.scheduler + ": EvalResult differs");
    }
  }
  // Means, fleet summary and every recorded series sample, as raw
  // IEEE-754 bit patterns.
  if (orchestrator::eval_to_text(plain) != orchestrator::eval_to_text(wrapped))
    problems.emplace_back("canonical evaluation text differs");
  if (probe.make_calls.load() == 0 || probe.decide_calls.load() == 0)
    problems.emplace_back("the wrappers were never called");

  std::printf("selftest: %zu model(s) on %s, %lld make / %lld decide calls"
              " through the wrappers\n",
              a.size(), spec.name.c_str(),
              static_cast<long long>(probe.make_calls.load()),
              static_cast<long long>(probe.decide_calls.load()));
  for (const std::string& problem : problems)
    std::printf("selftest: FAIL %s\n", problem.c_str());
  if (problems.empty())
    std::printf("selftest: wrapped roster is bit-identical to the plain one\n");
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config args = Config::from_args(argc, argv);
    args.check_known({"workload", "seed", "seconds", "trace", "workdir",
                      "size", "selftest"});
    if (args.get_bool("selftest", false)) return selftest();
    return run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
