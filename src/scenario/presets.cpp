#include "scenario/presets.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/string_util.hpp"

namespace greennfv::scenario {

namespace {

ScenarioSpec paper_default() {
  ScenarioSpec spec;  // the defaults ARE the paper's §5 evaluation
  spec.name = "paper-default";
  spec.description =
      "Paper §5 evaluation: 3 heterogeneous chains, 5 flows at 12 Gbps"
      " steady, EE SLA, one node";
  return spec;
}

ScenarioSpec overload() {
  ScenarioSpec spec;
  spec.name = "overload";
  spec.description =
      "Sustained 30 Gbps over a 10 GbE node with bursty swings — livelock"
      " and drop-management territory";
  spec.total_offered_gbps = 30.0;
  spec.num_flows = 8;
  spec.profile.kind = traffic::RateProfile::Kind::kBursty;
  spec.profile.period_s = 60.0;
  spec.profile.amplitude = 0.4;
  spec.eval_windows = 16;
  return spec;
}

ScenarioSpec diurnal() {
  ScenarioSpec spec;
  spec.name = "diurnal";
  spec.description =
      "Metro-PoP day/night swing: 14 Gbps mean with a +/-60% sinusoid over"
      " 240 s";
  spec.total_offered_gbps = 14.0;
  spec.profile.kind = traffic::RateProfile::Kind::kDiurnal;
  spec.profile.period_s = 240.0;
  spec.profile.amplitude = 0.6;
  spec.eval_windows = 24;
  return spec;
}

ScenarioSpec flash_crowd() {
  ScenarioSpec spec;
  spec.name = "flash-crowd";
  spec.description =
      "10 Gbps steady until a 3x surge hits at t=40 s for 40 s — the"
      " reaction-time stress test";
  spec.total_offered_gbps = 10.0;
  spec.window_s = 5.0;
  spec.profile.kind = traffic::RateProfile::Kind::kFlashCrowd;
  spec.profile.surge_start_s = 40.0;
  spec.profile.surge_duration_s = 40.0;
  spec.profile.surge_factor = 3.0;
  spec.eval_windows = 24;
  return spec;
}

ScenarioSpec heterogeneous_cluster() {
  ScenarioSpec spec;
  spec.name = "heterogeneous-cluster";
  spec.description =
      "Three hosting nodes (the paper's testbed shape), six mixed-NF"
      " chains placed least-loaded, 12 flows at 30 Gbps";
  spec.num_nodes = 3;
  spec.placement = PlacementPolicy::kLeastLoaded;
  spec.num_chains = 6;
  spec.chain_nfs = {
      {"firewall", "router", "ids"},
      {"firewall", "nat", "tunnel_gw"},
      {"flow_monitor", "router", "epc"},
      {"nat", "router", "ids"},
      {"firewall", "flow_monitor", "tunnel_gw"},
      {"firewall", "router", "epc"},
  };
  spec.num_flows = 12;
  spec.total_offered_gbps = 30.0;
  return spec;
}

ScenarioSpec tcp_heavy() {
  ScenarioSpec spec;
  spec.name = "tcp-heavy";
  spec.description =
      "Explicit closed-loop mix: four AIMD TCP flows and two UDP blasters"
      " over the standard chains";
  spec.flows = {
      flow_from_text("tcp:poisson:512:1.5e6:0", 0),
      flow_from_text("tcp:mmpp:1518:4e5:1:2.5:0.5", 1),
      flow_from_text("tcp:poisson:256:1.8e6:2", 2),
      flow_from_text("tcp:mmpp:1024:5e5:0:2:0.4", 3),
      flow_from_text("udp:cbr:64:2e6:1", 4),
      flow_from_text("udp:onoff:128:1.5e6:2:3:0.5", 5),
  };
  spec.num_flows = static_cast<int>(spec.flows.size());
  return spec;
}

ScenarioSpec ci_smoke() {
  ScenarioSpec spec;
  spec.name = "ci-smoke";
  spec.description =
      "Tiny gate workload: 2 chains, 4 flows at 8 Gbps bursty, minimal"
      " training budgets — seconds, not minutes";
  spec.num_chains = 2;
  spec.num_flows = 4;
  spec.total_offered_gbps = 8.0;
  spec.profile.kind = traffic::RateProfile::Kind::kBursty;
  spec.profile.period_s = 8.0;
  spec.profile.amplitude = 0.5;
  spec.window_s = 2.0;
  spec.sub_windows = 2;
  spec.steps_per_episode = 4;
  spec.eval_windows = 3;
  spec.episodes = 6;
  spec.q_episodes = 6;
  spec.candidates = 1;
  return spec;
}

ScenarioSpec fleet_smoke() {
  ScenarioSpec spec;
  spec.name = "fleet-smoke";
  spec.description =
      "Tiny dynamic fleet: 3 nodes, online chain arrivals/departures,"
      " consolidation migrations, power gating — seconds, not minutes";
  spec.num_nodes = 3;
  spec.num_chains = 3;
  spec.num_flows = 6;
  spec.total_offered_gbps = 9.0;
  spec.window_s = 2.0;
  spec.sub_windows = 2;
  spec.steps_per_episode = 4;
  spec.eval_windows = 3;
  spec.episodes = 6;
  spec.q_episodes = 6;
  spec.candidates = 1;
  spec.fleet.enabled = true;
  spec.fleet.horizon_windows = 10;
  spec.fleet.arrival_rate = 0.7;
  spec.fleet.mean_holding_windows = 5.0;
  spec.fleet.flows_per_chain = 2;
  spec.fleet.chain_offered_gbps = 3.0;
  spec.fleet.policy = "consolidate";
  spec.fleet.sleep_after_windows = 1;
  return spec;
}

ScenarioSpec fault_smoke() {
  ScenarioSpec spec = fleet_smoke();
  spec.name = "fault-smoke";
  spec.description =
      "fleet-smoke plus fault injection: node crashes, a rack-outage"
      " chance, wake-latency storms, exponential repairs — the resilience"
      " gate, still seconds";
  // Rates sized so a 10-window run reliably sees crashes and recovery
  // without flattening the 3-node fleet: ~2 crashes, ~1 storm window.
  spec.fault.enabled = true;
  spec.fault.node_crash_rate = 0.2;
  spec.fault.rack_outage_rate = 0.05;
  spec.fault.rack_size = 2;
  spec.fault.mean_repair_windows = 3.0;
  spec.fault.wake_storm_prob = 0.15;
  spec.fault.wake_storm_factor = 4.0;
  return spec;
}

ScenarioSpec mega_fleet() {
  ScenarioSpec spec;
  spec.name = "mega-fleet";
  spec.description =
      "Hyperscale fleet history: 10k nodes, ~1M chain arrivals over 420"
      " windows (14 simulated minutes) — seconds to build with the"
      " indexed engine, then a replay per model across every hardware"
      " thread; evaluate models against it only with tiny rosters";
  spec.seed = 42;
  spec.num_nodes = 10000;
  spec.num_chains = 3;
  spec.num_flows = 6;
  spec.total_offered_gbps = 9.0;
  spec.window_s = 2.0;
  spec.sub_windows = 2;
  spec.steps_per_episode = 4;
  spec.eval_windows = 3;
  spec.episodes = 6;
  spec.q_episodes = 6;
  spec.candidates = 1;
  spec.fleet.enabled = true;
  spec.fleet.horizon_windows = 420;
  // 2500 arrivals/window x 420 windows ≈ 1.05M chains; mean holding 12
  // windows ≈ 30k live chains (90k committed cores) against 140k
  // schedulable — enough headroom that consolidation and power gating
  // keep churning instead of the fleet saturating.
  spec.fleet.arrival_rate = 2500.0;
  spec.fleet.mean_holding_windows = 12.0;
  spec.fleet.flows_per_chain = 1;
  spec.fleet.chain_offered_gbps = 3.0;
  spec.fleet.policy = "consolidate";
  spec.fleet.sleep_after_windows = 1;
  return spec;
}

const std::vector<ScenarioSpec>& registry() {
  static const std::vector<ScenarioSpec> presets = {
      paper_default(), overload(),  diurnal(),  flash_crowd(),
      heterogeneous_cluster(),      tcp_heavy(), ci_smoke(),
      fleet_smoke(),   fault_smoke(), mega_fleet(),
  };
  return presets;
}

}  // namespace

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const auto& spec : registry()) names.push_back(spec.name);
  return names;
}

ScenarioSpec preset(const std::string& name) {
  for (const auto& spec : registry())
    if (spec.name == name) return spec;
  std::string known;
  for (const auto& spec : registry()) {
    if (!known.empty()) known += ", ";
    known += spec.name;
  }
  throw std::invalid_argument("scenario: unknown preset '" + name +
                              "' (known: " + known + ")");
}

std::string preset_table() {
  std::string table;
  for (const auto& spec : registry())
    table += format("  %-22s %s\n", spec.name.c_str(),
                    spec.description.c_str());
  return table;
}

void print_cli_help(std::vector<std::string> keys, bool scenario_driven) {
  keys.emplace_back("help");
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::printf("accepted key=value arguments:\n");
  for (const auto& key : keys) std::printf("  %s\n", key.c_str());
  if (scenario_driven) {
    std::printf("\nnamed scenarios (scenario=<name>):\n%s",
                preset_table().c_str());
  }
}

bool print_help_if_requested(const Config& config,
                             const std::vector<std::string>& extra_keys) {
  if (!config.get_bool("help", false)) return false;
  std::vector<std::string> keys = ScenarioSpec::known_keys();
  keys.insert(keys.end(), extra_keys.begin(), extra_keys.end());
  print_cli_help(std::move(keys), /*scenario_driven=*/true);
  return true;
}

ScenarioSpec resolve(const Config& config,
                     const std::string& default_scenario) {
  ScenarioSpec spec;
  if (const auto file = config.get("scenario_file")) {
    if (config.has("scenario"))
      throw std::invalid_argument(
          "scenario: pass scenario= or scenario_file=, not both");
    spec = ScenarioSpec::load(*file);
  } else {
    spec = preset(config.get_string("scenario", default_scenario));
  }
  spec.apply(config);
  spec.validate();
  return spec;
}

}  // namespace greennfv::scenario
