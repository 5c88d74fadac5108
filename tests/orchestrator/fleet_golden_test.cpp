#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/fs_util.hpp"
#include "common/string_util.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/presets.hpp"
#include "telemetry/metrics.hpp"
#include "tests/support/timeline_text.hpp"

/// Golden equivalence suite. The files under tests/orchestrator/golden/
/// were captured from the PR 5 window-synchronous fleet engine BEFORE the
/// indexed engine replaced it; every cell here asserts the current indexed
/// window-loop engine reproduces that history bit-for-bit (doubles
/// compared by raw IEEE-754 bit pattern, not rounded text). Regenerate
/// deliberately with
///   GREENNFV_REGEN_GOLDEN=1 ./build/tests/orchestrator_fleet_golden_test
/// — only after proving equivalence some other way (the reference-engine
/// comparison in fleet_determinism_test covers live equivalence).

namespace greennfv {
namespace {

using orchestrator::FleetOrchestrator;
using orchestrator::FleetReport;
using orchestrator::eval_to_text;
using orchestrator::timeline_to_text;

bool regen() { return std::getenv("GREENNFV_REGEN_GOLDEN") != nullptr; }

std::string golden_path(const std::string& name) {
  return std::string(GREENNFV_GOLDEN_DIR) + "/" + name + ".txt";
}

/// Compares against the checked-in golden, reporting the first divergent
/// line (bit-exact text means any engine drift shows up here).
void expect_matches_golden(const std::string& name, const std::string& text) {
  const std::string path = golden_path(name);
  if (regen()) {
    write_file_atomic(path, text);
    return;
  }
  ASSERT_TRUE(file_exists(path))
      << "missing golden " << path
      << " — run with GREENNFV_REGEN_GOLDEN=1 to capture it";
  const std::string want = read_file(path);
  if (text == want) return;
  const auto got_lines = split(text, '\n');
  const auto want_lines = split(want, '\n');
  std::size_t line = 0;
  while (line < got_lines.size() && line < want_lines.size() &&
         got_lines[line] == want_lines[line]) {
    ++line;
  }
  FAIL() << "golden mismatch for " << name << " at line " << line + 1
         << "\n  golden: "
         << (line < want_lines.size() ? want_lines[line] : "<eof>")
         << "\n  engine: "
         << (line < got_lines.size() ? got_lines[line] : "<eof>");
}

struct Cell {
  std::string name;
  scenario::ScenarioSpec spec;
};

/// The pinned cells: the fleet-smoke preset under all four policies, a
/// churnier 5-node consolidation cell, and a wake-heavy cell that sleeps
/// aggressively so migrations land on gated nodes.
std::vector<Cell> timeline_cells() {
  std::vector<Cell> cells;
  cells.push_back({"fleet-smoke", scenario::preset("fleet-smoke")});
  for (const char* policy : {"first-fit", "least-loaded", "energy-bestfit"}) {
    Cell cell{std::string("fleet-smoke-") + policy,
              scenario::preset("fleet-smoke")};
    cell.spec.fleet.policy = policy;
    cells.push_back(std::move(cell));
  }
  {
    Cell cell{"fleet-churn", scenario::preset("fleet-smoke")};
    cell.spec.seed = 7;
    cell.spec.num_nodes = 5;
    cell.spec.fleet.horizon_windows = 24;
    cell.spec.fleet.arrival_rate = 1.5;
    cell.spec.fleet.mean_holding_windows = 4.0;
    cells.push_back(std::move(cell));
  }
  {
    Cell cell{"fleet-wake", scenario::preset("fleet-smoke")};
    cell.spec.seed = 3;
    cell.spec.num_nodes = 4;
    cell.spec.fleet.horizon_windows = 24;
    cell.spec.fleet.arrival_rate = 1.6;
    cell.spec.fleet.mean_holding_windows = 8.0;
    cell.spec.fleet.consolidate_below = 0.5;
    cell.spec.fleet.sleep_after_windows = 1;
    cells.push_back(std::move(cell));
  }
  {
    // PR 7: network fabric on. Leaf-spine routing with the topology-aware
    // policy and a latency SLA pins path hops/latency, link energy, and
    // the per-window net counters.
    Cell cell{"fleet-topo-leafspine", scenario::preset("fleet-smoke")};
    cell.spec.seed = 7;
    cell.spec.fleet.policy = "topology-aware-bestfit";
    cell.spec.topology.enabled = true;
    cell.spec.topology.preset = "leaf-spine";
    cell.spec.latency_sla_us = 40.0;
    cells.push_back(std::move(cell));
  }
  {
    // Starved fat-tree under widest routing: pins the net-rejection and
    // migration-veto paths (committed bandwidth must block placements).
    Cell cell{"fleet-topo-tight", scenario::preset("fleet-smoke")};
    cell.spec.seed = 11;
    cell.spec.num_nodes = 4;
    cell.spec.fleet.horizon_windows = 24;
    cell.spec.fleet.arrival_rate = 1.8;
    cell.spec.topology.enabled = true;
    cell.spec.topology.preset = "fat-tree";
    cell.spec.topology.routing = "widest";
    cell.spec.topology.link_gbps = 8.0;
    cell.spec.topology.core_gbps = 8.0;
    cells.push_back(std::move(cell));
  }
  {
    // PR 9: fault injection on. The fault-smoke preset pins crashes,
    // exponential repairs, recovery re-placements, and storm-scaled wake
    // charges in the serialized history.
    cells.push_back({"fleet-fault-crash", scenario::preset("fault-smoke")});
  }
  {
    // Storm-heavy variant: most windows are wake storms, so the scaled
    // wake charge path dominates the downtime/energy decomposition.
    Cell cell{"fleet-fault-storm", scenario::preset("fault-smoke")};
    cell.spec.seed = 5;
    cell.spec.fault.node_crash_rate = 0.3;
    cell.spec.fault.wake_storm_prob = 0.5;
    cell.spec.fleet.sleep_after_windows = 1;
    cells.push_back(std::move(cell));
  }
  {
    // Correlated rack outages over a 6-node fleet in 3-node racks: pins
    // multi-node crashes landing in one window and whole-rack repair.
    Cell cell{"fleet-fault-rack", scenario::preset("fault-smoke")};
    cell.spec.seed = 13;
    cell.spec.num_nodes = 6;
    cell.spec.fleet.horizon_windows = 20;
    cell.spec.fleet.arrival_rate = 1.2;
    cell.spec.fault.node_crash_rate = 0.0;
    cell.spec.fault.rack_outage_rate = 0.3;
    cell.spec.fault.rack_size = 3;
    cells.push_back(std::move(cell));
  }
  {
    // Faults on a contended leaf-spine fabric: link failures re-route or
    // evict riders, failed links leave the routing table and the energy
    // sum, and recovery placements fight the latency SLA.
    Cell cell{"fleet-fault-linkfail", scenario::preset("fault-smoke")};
    cell.spec.seed = 7;
    cell.spec.num_nodes = 4;
    cell.spec.fleet.horizon_windows = 20;
    cell.spec.fleet.arrival_rate = 1.5;
    cell.spec.fleet.policy = "topology-aware-bestfit";
    cell.spec.topology.enabled = true;
    cell.spec.topology.preset = "leaf-spine";
    cell.spec.topology.link_gbps = 8.0;
    cell.spec.topology.core_gbps = 16.0;
    cell.spec.latency_sla_us = 40.0;
    cell.spec.fault.node_crash_rate = 0.1;
    cell.spec.fault.link_fail_rate = 0.4;
    cells.push_back(std::move(cell));
  }
  return cells;
}

TEST(FleetGolden, TimelineMatchesWindowSynchronousEngine) {
  for (const auto& cell : timeline_cells()) {
    SCOPED_TRACE(cell.name);
    FleetOrchestrator orchestrator(cell.spec);
    expect_matches_golden(
        "timeline_" + cell.name,
        timeline_to_text(orchestrator.timeline(), cell.spec.num_nodes));
  }
}

TEST(FleetGolden, WakeCellExercisesPowerTransitions) {
  // Guards the fleet-wake golden against silently degenerating: it must
  // actually sleep nodes, wake them, and migrate chains.
  for (const auto& cell : timeline_cells()) {
    if (cell.name != "fleet-wake") continue;
    FleetOrchestrator orchestrator(cell.spec);
    const auto& timeline = orchestrator.timeline();
    EXPECT_GT(timeline.wakeups, 0);
    EXPECT_GT(timeline.migrations, 0);
    EXPECT_GT(timeline.standby_energy_j, 0.0);
  }
}

TEST(FleetGolden, FaultCellsExerciseInjectionAndRecovery) {
  // Guards the fault goldens against silently degenerating: each pinned
  // fault cell must actually inject its headline fault kind and drive the
  // recovery machinery.
  for (const auto& cell : timeline_cells()) {
    if (cell.name.rfind("fleet-fault-", 0) != 0) continue;
    SCOPED_TRACE(cell.name);
    FleetOrchestrator orchestrator(cell.spec);
    const auto& timeline = orchestrator.timeline();
    EXPECT_TRUE(timeline.fault_enabled);
    if (cell.name == "fleet-fault-crash" || cell.name == "fleet-fault-storm") {
      EXPECT_GT(timeline.node_crashes, 0);
    }
    if (cell.name == "fleet-fault-storm") {
      EXPECT_GT(timeline.storm_windows, 0);
    }
    if (cell.name == "fleet-fault-rack") {
      EXPECT_GT(timeline.rack_outages, 0);
    }
    if (cell.name == "fleet-fault-linkfail") {
      EXPECT_GT(timeline.link_fails, 0);
    }
    EXPECT_GT(timeline.replaced + timeline.fault_dropped + timeline.rerouted,
              0);
  }
}

TEST(FleetGolden, EvalMatchesWindowSynchronousEngine) {
  // Full model evaluation over the pinned history: per-window series for
  // untrained models, bit-exact. Covers run_model (membership rebuilds,
  // standby accounting, downtime charges), not just the timeline builder.
  scenario::ScenarioSpec spec = scenario::preset("fleet-smoke");
  FleetOrchestrator orchestrator(spec);
  const FleetReport report = orchestrator.run(scenario::filter_roster(
      scenario::untrained_roster(spec), "baseline,ee-pstate"));
  expect_matches_golden("eval_fleet-smoke", eval_to_text(report));
}

TEST(FleetGolden, TopologyEvalMatchesPinnedHistory) {
  // Same eval-layer coverage with the fabric on: link energy folded into
  // the decomposition, path-latency series, and the conjunctive latency
  // SLA all pinned bit-exact.
  scenario::ScenarioSpec spec = scenario::preset("fleet-smoke");
  spec.seed = 7;
  spec.fleet.policy = "topology-aware-bestfit";
  spec.topology.enabled = true;
  spec.topology.preset = "leaf-spine";
  spec.latency_sla_us = 40.0;
  FleetOrchestrator orchestrator(spec);
  const FleetReport report = orchestrator.run(scenario::filter_roster(
      scenario::untrained_roster(spec), "baseline,ee-pstate"));
  expect_matches_golden("eval_fleet-topo-leafspine", eval_to_text(report));
}

TEST(FleetGolden, FaultEvalMatchesPinnedHistory) {
  // Eval-layer coverage with faults on: recovery re-placements and drops
  // rebuilt through the membership replay, replace/drop downtime charged
  // against traffic and SLA, storm-scaled wake energy in the bill — all
  // pinned bit-exact.
  scenario::ScenarioSpec spec = scenario::preset("fault-smoke");
  FleetOrchestrator orchestrator(spec);
  const FleetReport report = orchestrator.run(scenario::filter_roster(
      scenario::untrained_roster(spec), "baseline,ee-pstate"));
  expect_matches_golden("eval_fleet-fault-crash", eval_to_text(report));
}

TEST(FleetGolden, ChurnEvalRebuildsFullNodesOnThePool) {
  // A churning mega-fleet slice on a faulty leaf-spine fabric: eight
  // nodes, so the replay runs on the pool, filled up to four chains each
  // and rebuilt on about a third of their occupied windows. Baseline runs
  // with CAT off, Heuristics and EE-Pstate with it on, so every rebuilt
  // node's windows are pinned bit-exact under both cache modes.
  namespace mc = telemetry::metrics;
  scenario::ScenarioSpec spec = scenario::preset("mega-fleet");
  spec.seed = 17;
  spec.num_nodes = 8;
  spec.fleet.horizon_windows = 24;
  spec.fleet.arrival_rate = 3.0;
  spec.fleet.mean_holding_windows = 8.0;
  spec.topology.enabled = true;
  spec.topology.preset = "leaf-spine";
  spec.topology.link_gbps = 40.0;
  spec.topology.core_gbps = 400.0;
  spec.fault.enabled = true;
  spec.fault.node_crash_rate = 0.05;
  spec.fault.link_fail_rate = 0.05;
  mc::set_enabled(true);
  mc::reset();
  FleetOrchestrator orchestrator(spec);
  const FleetReport report = orchestrator.run(scenario::filter_roster(
      scenario::untrained_roster(spec), "baseline,heuristics,ee-pstate"));
  const std::uint64_t rebuilds = mc::counter("fleet.env_rebuilds").value();
  mc::set_enabled(false);
  mc::reset();
  ASSERT_EQ(report.report.models.size(), 3u);
  EXPECT_GE(rebuilds, 3u * 50u);

  const orchestrator::FleetTimeline& timeline = orchestrator.timeline();
  EXPECT_GT(timeline.node_crashes + timeline.link_fails, 0);
  orchestrator::MembershipReplay replay(timeline, spec.num_nodes);
  std::size_t most_chains = 0;
  for (int w = 0; w < spec.fleet.horizon_windows; ++w) {
    for (const int n : replay.advance())
      most_chains = std::max(most_chains, replay.members(n).size());
  }
  EXPECT_EQ(most_chains, 4u);
  expect_matches_golden("eval_mega-fleet-churn", eval_to_text(report));
}

TEST(FleetGolden, TrainedEvalMatchesPinnedHistory) {
  // The full trained roster on the perfbench trained-smoke shape (static
  // membership: one (node, chain count) key per model, 3 chains on one
  // node, so the DDPG networks are 12 -> {64, 64} -> 15 at batch 64).
  // 48 episodes of 4 steps give each GreenNFV policy about 65 DDPG train
  // steps past the 128-transition warm-up: the GEMM kernels, backprop and
  // Adam all shape these bits.
  scenario::ScenarioSpec spec = scenario::preset("fleet-smoke");
  spec.fleet.arrival_rate = 0.0;
  spec.episodes = 48;
  spec.q_episodes = 48;
  spec.candidates = 1;
  FleetOrchestrator orchestrator(spec);
  const FleetReport report = orchestrator.run(scenario::default_roster(spec));
  expect_matches_golden("eval_fleet-smoke-trained", eval_to_text(report));
}

/// A static deployment (fleet.enabled=0) with the roster it is run under.
struct StaticCell {
  std::string name;
  scenario::ScenarioSpec spec;
  std::string models;
};

/// The pinned static cells, all on CI-sized windows: the nine
/// placement-sweep cells (heterogeneous-cluster x nodes x placement), five
/// chains (15 NF cores) on one 14-core node, and one node with a chain
/// that receives no flows.
std::vector<StaticCell> static_cells() {
  const auto small = [](const std::string& preset_name) {
    scenario::ScenarioSpec spec = scenario::preset(preset_name);
    spec.eval_windows = 3;
    spec.sub_windows = 2;
    spec.window_s = 2.0;
    return spec;
  };
  std::vector<StaticCell> cells;
  for (const int nodes : {2, 3, 4}) {
    for (const char* placement :
         {"first-fit-decreasing", "least-loaded", "energy-bestfit"}) {
      StaticCell cell{format("heterogeneous-cluster-n%d-%s", nodes, placement),
                      small("heterogeneous-cluster"), "baseline,ee-pstate"};
      cell.spec.num_nodes = nodes;
      cell.spec.placement = scenario::placement_from_string(placement);
      cells.push_back(std::move(cell));
    }
  }
  {
    StaticCell cell{"paper-default-chains5", small("paper-default"),
                    "baseline,heuristics,ee-pstate"};
    cell.spec.num_chains = 5;
    cell.spec.num_flows = 10;
    cells.push_back(std::move(cell));
  }
  {
    StaticCell cell{"paper-default-flowless-chain", small("paper-default"),
                    "baseline,heuristics,ee-pstate"};
    cell.spec.flows = {scenario::flow_from_text("udp:poisson:512:1e6:0", 0),
                       scenario::flow_from_text("tcp:poisson:1024:4e5:1", 1),
                       scenario::flow_from_text("udp:cbr:256:8e5:0", 2)};
    cell.spec.num_flows = static_cast<int>(cell.spec.flows.size());
    cells.push_back(std::move(cell));
  }
  return cells;
}

/// Every model's six means and every sample of its six aggregate series,
/// doubles as raw bit patterns.
std::string static_eval_text(const scenario::EvalReport& report) {
  std::string text = "# greennfv static deployment eval v1\n";
  text += format("scenario=%s nodes=%d models=%d\n", report.scenario.c_str(),
                 report.nodes, static_cast<int>(report.models.size()));
  for (const auto& model : report.models) {
    const core::EvalResult& r = model.result;
    text += format("model %s windows=%d\n", r.scheduler.c_str(), r.windows);
    text += format(
        "means gbps=%s energy_j=%s power_w=%s efficiency=%s sla=%s drop=%s\n",
        orchestrator::double_bits(r.mean_gbps).c_str(),
        orchestrator::double_bits(r.mean_energy_j).c_str(),
        orchestrator::double_bits(r.mean_power_w).c_str(),
        orchestrator::double_bits(r.mean_efficiency).c_str(),
        orchestrator::double_bits(r.sla_satisfaction).c_str(),
        orchestrator::double_bits(r.drop_fraction).c_str());
    for (const char* series : {"throughput_gbps", "energy_j", "power_w",
                               "efficiency", "drop_fraction",
                               "offered_pps"}) {
      const TimeSeries& s = report.series.series(model.prefix + series);
      text += "series " + model.prefix + series + "\n";
      for (std::size_t i = 0; i < s.size(); ++i) {
        text += "  " + orchestrator::double_bits(s.times()[i]) + " " +
                orchestrator::double_bits(s.values()[i]) + "\n";
      }
    }
  }
  return text;
}

TEST(FleetGolden, StaticDeploymentGolden) {
  // Static deployments pinned bit-exact: multi-node placement and
  // partitioning, idle-node power, an over-full single node that still
  // hosts every chain, and a chain that runs without traffic.
  for (const auto& cell : static_cells()) {
    SCOPED_TRACE(cell.name);
    FleetOrchestrator orchestrator(cell.spec);
    const scenario::EvalReport report =
        orchestrator
            .run(scenario::filter_roster(
                scenario::untrained_roster(cell.spec), cell.models))
            .report;
    expect_matches_golden("static_" + cell.name, static_eval_text(report));
  }
}

}  // namespace
}  // namespace greennfv
