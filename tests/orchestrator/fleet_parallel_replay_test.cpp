#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "core/environment.hpp"
#include "core/nf_controller.hpp"
#include "core/scheduler.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/presets.hpp"
#include "traffic/profile.hpp"

/// Parallel fleet replay against the serial rule. Called off-pool, a fleet
/// of 8 or more nodes replays its nodes on pool threads; called from inside
/// a parallel_for range body, it replays them inline, one after another.
/// Both runs must produce byte-identical reports, make every scheduler on
/// the calling thread in first-use (window, node) order, and surface the
/// scheduler failure the window-major serial loop meets first. The goldens
/// pin fleets of at most 6 nodes, so only this suite drives the parallel
/// path.

namespace greennfv::orchestrator {
namespace {

/// A churning 48-node fleet with node crashes, rack outages, link
/// failures, storms and a leaf-spine fabric: at most 64 nodes, so per-node
/// series are recorded, and 40 windows, so the replay spans three blocks.
/// Least-loaded placement spreads the chains over most of the nodes, and
/// a diurnal load whose period is not a block length makes a mid-run
/// rebuild's profile alignment depend on the absolute window.
scenario::ScenarioSpec faulted_fabric_spec() {
  scenario::ScenarioSpec spec = scenario::preset("fault-smoke");
  spec.seed = 17;
  spec.profile.kind = traffic::RateProfile::Kind::kDiurnal;
  spec.profile.period_s = 26.0;
  spec.num_nodes = 48;
  spec.fleet.horizon_windows = 40;
  spec.fleet.arrival_rate = 20.0;
  spec.fleet.mean_holding_windows = 5.0;
  spec.fleet.policy = "least-loaded";
  spec.fault.node_crash_rate = 0.3;
  spec.fault.rack_outage_rate = 0.1;
  spec.fault.rack_size = 4;
  spec.fault.link_fail_rate = 0.2;
  spec.topology.enabled = true;
  spec.topology.preset = "leaf-spine";
  spec.topology.link_gbps = 400.0;
  spec.topology.core_gbps = 20000.0;
  spec.latency_sla_us = 40.0;
  return spec;
}

/// A churning fleet past the 64-node per-node-series cutoff.
scenario::ScenarioSpec wide_spec() {
  scenario::ScenarioSpec spec = scenario::preset("fleet-smoke");
  spec.seed = 23;
  spec.num_nodes = 96;
  spec.fleet.horizon_windows = 36;
  spec.fleet.arrival_rate = 20.0;
  spec.fleet.mean_holding_windows = 6.0;
  return spec;
}

/// A make call's identity: the environment's chain count and its offered
/// load, bit for bit (the flows differ per node and per chain set).
std::string describe(const core::EnvConfig& env) {
  return format("chains=%d offered=%s", env.num_chains,
                double_bits(env.total_offered_gbps).c_str());
}

/// What a recording roster entry saw, across every thread.
struct Recording {
  std::mutex mutex;
  std::vector<std::thread::id> make_threads;
  std::vector<std::string> makes;
  std::set<std::thread::id> decide_threads;
};

/// Baseline's knobs, with every decide() thread recorded. With
/// `fail_call` > 0 it throws on its `fail_call`-th decide(), naming its
/// make-order `index`.
class RecordingScheduler final : public core::Scheduler {
 public:
  RecordingScheduler(const core::EnvConfig& env, Recording& recording,
                     int index, int fail_call)
      : inner_(env.spec),
        recording_(recording),
        index_(index),
        fail_call_(fail_call) {}

  [[nodiscard]] std::string name() const override { return "Recording"; }
  [[nodiscard]] std::vector<nfvsim::ChainKnobs> decide(
      const std::vector<core::ChainObservation>& obs,
      const std::vector<nfvsim::ChainKnobs>& current) override {
    {
      const std::lock_guard<std::mutex> lock(recording_.mutex);
      recording_.decide_threads.insert(std::this_thread::get_id());
    }
    if (++calls_ == fail_call_) {
      throw std::runtime_error(
          format("scheduler %d failed on decide %d", index_, calls_));
    }
    return inner_.decide(obs, current);
  }
  [[nodiscard]] bool wants_cat() const override { return inner_.wants_cat(); }
  [[nodiscard]] nfvsim::SchedMode sched_mode() const override {
    return inner_.sched_mode();
  }

 private:
  core::BaselineScheduler inner_;
  Recording& recording_;
  int index_;
  int fail_call_;
  int calls_ = 0;
};

/// A roster entry making RecordingSchedulers; `failures` maps a make index
/// to the decide() call on which that instance throws.
scenario::SchedulerFactory recording_entry(Recording& recording,
                                           std::map<int, int> failures = {}) {
  scenario::SchedulerFactory entry;
  entry.name = "Recording";
  entry.warmup = 2;
  entry.make = [&recording, failures](const core::EnvConfig& env,
                                      std::uint64_t) {
    int index = 0;
    {
      const std::lock_guard<std::mutex> lock(recording.mutex);
      index = static_cast<int>(recording.makes.size());
      recording.make_threads.push_back(std::this_thread::get_id());
      recording.makes.push_back(describe(env));
    }
    const auto failure = failures.find(index);
    return std::make_unique<RecordingScheduler>(
        env, recording, index,
        failure == failures.end() ? 0 : failure->second);
  };
  return entry;
}

/// One (node, chain count) key's first use in the timeline.
struct FirstUse {
  int window = 0;
  int node = 0;
  std::string make;  ///< describe() of the environment it trains on
};

/// The first-use order of every (node, chain count) key, derived from the
/// timeline independently of the orchestrator: walk membership window by
/// window, and on each change of a node's chain set to a shape the node
/// has not hosted yet, partition its environment from the full flow pool.
std::vector<FirstUse> first_uses(const FleetOrchestrator& fleet) {
  const FleetTimeline& timeline = fleet.timeline();
  const scenario::ScenarioSpec& spec = fleet.spec();
  std::vector<std::vector<std::string>> comps;
  for (const ChainInstance& chain : timeline.chains)
    comps.push_back(chain.nfs);
  MembershipReplay replay(timeline, spec.num_nodes);
  std::vector<std::vector<int>> hosted(
      static_cast<std::size_t>(spec.num_nodes));
  std::set<std::pair<int, std::size_t>> seen;
  std::vector<FirstUse> uses;
  for (int w = 0; w < fleet.horizon(); ++w) {
    for (const int n : replay.advance()) {
      const std::vector<int>& members = replay.members(n);
      if (members == hosted[static_cast<std::size_t>(n)]) continue;
      hosted[static_cast<std::size_t>(n)] = members;
      if (members.empty() || !seen.insert({n, members.size()}).second)
        continue;
      uses.push_back({w, n,
                      describe(scenario::partition_node_env(
                          spec, comps, timeline.flows, members, n))});
    }
  }
  return uses;
}

/// Runs `fleet` as index 0 of a two-index range, which takes the serial
/// rule; `worker` receives the index's thread.
FleetReport run_on_pool_worker(
    FleetOrchestrator& fleet,
    const std::vector<scenario::SchedulerFactory>& roster,
    std::thread::id* worker = nullptr) {
  FleetReport report;
  ThreadPool::parallel_for(2, 2, [&](std::size_t i) {
    if (i != 0) return;
    if (worker != nullptr) *worker = std::this_thread::get_id();
    report = fleet.run(roster);
  });
  return report;
}

void expect_parallel_equals_serial(const scenario::ScenarioSpec& spec) {
  FleetOrchestrator fleet(spec);
  ASSERT_GE(fleet.timeline().arrivals, 2 * spec.num_nodes)
      << "the fleet must churn for the replay to rebuild nodes";
  std::vector<std::string> expected_makes;
  for (const FirstUse& use : first_uses(fleet))
    expected_makes.push_back(use.make);

  Recording on_main;
  std::vector<scenario::SchedulerFactory> roster =
      scenario::untrained_roster(spec);
  roster.push_back(recording_entry(on_main));
  const std::string main_text = eval_to_text(fleet.run(roster));

  Recording on_pool;
  roster.back() = recording_entry(on_pool);
  std::thread::id worker;
  const std::string pool_text =
      eval_to_text(run_on_pool_worker(fleet, roster, &worker));
  EXPECT_EQ(main_text, pool_text);

  // make(): the calling thread only, in first-use order.
  EXPECT_EQ(on_main.makes, expected_makes);
  EXPECT_EQ(on_pool.makes, expected_makes);
  for (const std::thread::id id : on_main.make_threads)
    EXPECT_EQ(id, std::this_thread::get_id());
  for (const std::thread::id id : on_pool.make_threads) EXPECT_EQ(id, worker);

  // decide(): spread over threads off-pool, one thread inside the range.
  if (ThreadPool::hardware_threads() > 1) {
    EXPECT_GE(on_main.decide_threads.size(), 2u);
  }
  EXPECT_EQ(on_pool.decide_threads, std::set<std::thread::id>{worker});
}

TEST(FleetParallelReplay, FaultedFabricFleetMatchesTheSerialRule) {
  expect_parallel_equals_serial(faulted_fabric_spec());
}

TEST(FleetParallelReplay, WideFleetMatchesTheSerialRule) {
  expect_parallel_equals_serial(wide_spec());
}

/// Node `n`'s (time, throughput) samples replayed on their own, window by
/// window with no blocks and no threads, by the serial loop's rules: a
/// rebuild on each change of the node's chain set, epoch-strided seeds,
/// one scheduler per chain count, warmup at window 0 and fleet-time
/// profile alignment after it.
std::vector<std::pair<double, double>> replay_alone(
    const FleetOrchestrator& fleet, const scenario::SchedulerFactory& entry,
    int n) {
  constexpr std::uint64_t kEpochSeedStride = 0x9E3779B97F4A7C15ull;
  const FleetTimeline& timeline = fleet.timeline();
  const scenario::ScenarioSpec& spec = fleet.spec();
  std::vector<std::vector<std::string>> comps;
  for (const ChainInstance& chain : timeline.chains)
    comps.push_back(chain.nfs);
  MembershipReplay replay(timeline, spec.num_nodes);
  std::vector<int> hosted;
  std::map<std::size_t, std::unique_ptr<core::Scheduler>> schedulers;
  std::unique_ptr<core::NfvEnvironment> env;
  std::unique_ptr<core::NfController> controller;
  std::uint64_t epochs = 0;
  std::vector<std::pair<double, double>> samples;
  for (int w = 0; w < fleet.horizon(); ++w) {
    (void)replay.advance();
    const double t = w * spec.window_s;
    if (replay.members(n) != hosted) {
      hosted = replay.members(n);
      controller.reset();
      env.reset();
      if (!hosted.empty()) {
        const core::EnvConfig config = scenario::partition_node_env(
            spec, comps, timeline.flows, hosted, n);
        std::unique_ptr<core::Scheduler>& scheduler =
            schedulers[hosted.size()];
        if (scheduler == nullptr) scheduler = entry.make(config, spec.seed);
        scheduler->reset();
        const std::uint64_t seed =
            scenario::node_eval_seed(spec, static_cast<std::size_t>(n)) +
            kEpochSeedStride * epochs++;
        env = std::make_unique<core::NfvEnvironment>(config, seed);
        controller = std::make_unique<core::NfController>(*env, *scheduler);
        if (w == 0) {
          (void)controller->run(entry.warmup);
          env->align_rate_profile();
        } else {
          env->align_rate_profile(t);
        }
      }
    }
    if (env == nullptr) continue;
    (void)controller->run(1);
    samples.emplace_back(t, env->last_outcome().throughput_gbps);
  }
  return samples;
}

TEST(FleetParallelReplay, NodeSeriesMatchEachNodeReplayedAlone) {
  // Both runs above share the block walk, so they could agree on a wrong
  // answer; this oracle shares none of it. Forty windows cross two block
  // boundaries with rebuilds, crashes and repairs on either side.
  const scenario::ScenarioSpec spec = faulted_fabric_spec();
  FleetOrchestrator fleet(spec);
  const std::vector<scenario::SchedulerFactory> roster =
      scenario::filter_roster(scenario::untrained_roster(spec),
                              "baseline,ee-pstate");
  const FleetReport report = fleet.run(roster);
  int replayed_nodes = 0;
  for (const scenario::SchedulerFactory& entry : roster) {
    const std::string prefix = scenario::series_prefix(entry.name);
    for (int n = 0; n < spec.num_nodes; ++n) {
      const std::vector<std::pair<double, double>> alone =
          replay_alone(fleet, entry, n);
      const std::string name = prefix + format("node%d_throughput_gbps", n);
      if (alone.empty()) {
        EXPECT_FALSE(report.report.series.has(name));
        continue;
      }
      ++replayed_nodes;
      const TimeSeries& series = report.report.series.series(name);
      ASSERT_EQ(series.size(), alone.size()) << name;
      for (std::size_t i = 0; i < alone.size(); ++i) {
        EXPECT_EQ(double_bits(series.times()[i]), double_bits(alone[i].first))
            << name << " sample " << i;
        EXPECT_EQ(double_bits(series.values()[i]),
                  double_bits(alone[i].second))
            << name << " sample " << i;
      }
    }
  }
  // Most nodes host chains at some point, under both models.
  EXPECT_GT(replayed_nodes, spec.num_nodes);
}

TEST(FleetParallelReplay, FailureIsTheOneTheSerialLoopMeetsFirst) {
  // Two schedulers throw on two nodes. The first one made (the lowest
  // node at window 0) throws on its fourth decide: two warmup windows,
  // then windows 0 and 1, so at window 1. The last one made at window 0
  // (a higher node) throws on its third decide, in window 0. A node-major
  // walk meets the low node's failure first; the serial loop meets the
  // window-0 failure first, and both runs must report that one.
  const scenario::ScenarioSpec spec = wide_spec();
  FleetOrchestrator fleet(spec);
  const std::vector<FirstUse> uses = first_uses(fleet);
  int made_at_zero = 0;
  while (made_at_zero < static_cast<int>(uses.size()) &&
         uses[static_cast<std::size_t>(made_at_zero)].window == 0)
    ++made_at_zero;
  ASSERT_GE(made_at_zero, 2);
  const int late = made_at_zero - 1;
  ASSERT_LT(uses.front().node, uses[static_cast<std::size_t>(late)].node);
  const std::map<int, int> failures{{0, 4}, {late, 3}};
  const std::string expected =
      format("scheduler %d failed on decide 3", late);

  const auto message = [&](bool on_pool) {
    Recording recording;
    const std::vector<scenario::SchedulerFactory> roster{
        recording_entry(recording, failures)};
    try {
      if (on_pool) {
        (void)run_on_pool_worker(fleet, roster);
      } else {
        (void)fleet.run(roster);
      }
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("no failure");
  };
  EXPECT_EQ(message(/*on_pool=*/false), expected);
  EXPECT_EQ(message(/*on_pool=*/true), expected);
}

}  // namespace
}  // namespace greennfv::orchestrator
