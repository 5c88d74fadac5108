#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/string_util.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario_spec.hpp"

/// The scenario input surface: every key is declared once and typed, so
/// integers parse exactly (no saturation, no truncation), doubles must be
/// finite, flow fields are checked before use, and every preset and the
/// fault.* family survive save/load and apply/to_text unchanged.

namespace greennfv::scenario {
namespace {

// Every scalar key by its type. Together they must be exactly
// known_keys() minus the CLI-level scenario/scenario_file, so a new key
// cannot skip the typed checks below.
const std::vector<std::string> kIntKeys = {
    "nodes", "node_cores", "fleet.horizon", "fleet.flows_per_chain",
    "fleet.sleep_after", "topology.hosts_per_leaf", "topology.spines",
    "topology.fat_k", "fault.rack_size", "chains", "flows", "sub_windows",
    "steps_per_episode", "eval_windows", "episodes", "q_episodes",
    "candidates"};
const std::vector<std::string> kDoubleKeys = {
    "node_fmin_ghz", "node_fmax_ghz", "node_line_rate_gbps", "node_p_idle_w",
    "node_p_max_w", "node_p_sleep_w", "node_wake_latency_s",
    "fleet.arrival_rate", "fleet.mean_holding", "fleet.chain_gbps",
    "fleet.migration_downtime_s", "fleet.migration_energy_j",
    "fleet.consolidate_below", "topology.link_gbps",
    "topology.link_latency_us", "topology.core_gbps",
    "topology.core_latency_us", "topology.link_idle_w",
    "topology.link_nj_per_bit", "sla.latency", "fault.node_crash_rate",
    "fault.link_fail_rate", "fault.rack_outage_rate", "fault.mean_repair",
    "fault.replace_downtime_s", "fault.replace_energy_j",
    "fault.wake_storm_prob", "fault.wake_storm_factor", "offered_gbps",
    "profile_period_s", "profile_amplitude", "profile_surge_start_s",
    "profile_surge_duration_s", "profile_surge_factor", "energy_budget",
    "throughput_floor", "window_s", "noise_sigma", "noise_decay"};
const std::vector<std::string> kOtherKeys = {
    // bool
    "fleet.enabled", "fleet.migration", "fleet.power_gating",
    "topology.enabled", "fault.enabled", "shaped_reward", "prioritized",
    // string, enum, uint64
    "name", "fleet.policy", "topology.preset", "topology.routing",
    "placement", "profile", "sla", "seed"};

ScenarioSpec applied(const std::string& text) {
  ScenarioSpec spec;
  spec.apply(Config::from_string(text));
  return spec;
}

void apply_and_validate(const std::string& text) {
  applied(text).validate();
}

TEST(ScenarioKeys, TypedKeyListsCoverKnownKeysExactly) {
  std::multiset<std::string> typed(kIntKeys.begin(), kIntKeys.end());
  typed.insert(kDoubleKeys.begin(), kDoubleKeys.end());
  typed.insert(kOtherKeys.begin(), kOtherKeys.end());
  typed.insert({"scenario", "scenario_file"});
  const auto& known = ScenarioSpec::known_keys();
  EXPECT_EQ(known.size(), 73u);
  EXPECT_EQ(typed, std::multiset<std::string>(known.begin(), known.end()));
}

TEST(ScenarioKeys, ToTextEmitsEveryScalarKeyOnceInKnownKeyOrder) {
  std::vector<std::string> emitted;
  for (const std::string& line : split(ScenarioSpec{}.to_text(), '\n'))
    if (!line.empty()) emitted.push_back(line.substr(0, line.find('=')));
  const auto& known = ScenarioSpec::known_keys();
  EXPECT_EQ(emitted,
            std::vector<std::string>(known.begin() + 2, known.end()));
}

TEST(ScenarioKeys, SeedRoundTripsTheWholeUnsignedRange) {
  for (const char* seed : {"18446744073709551615", "12544586762248559009",
                           "9223372036854775808", "0"}) {
    const ScenarioSpec spec = applied(std::string("seed=") + seed);
    EXPECT_EQ(std::to_string(spec.seed), seed);
    EXPECT_EQ(applied(spec.to_text()).seed, spec.seed) << seed;
    EXPECT_EQ(applied(spec.to_text()).to_text(), spec.to_text()) << seed;
  }
}

TEST(ScenarioKeys, SignedOrOverflowingSeedsAreRejected) {
  for (const char* seed : {"-1", "+1", "18446744073709551616", "1e3", "0x10",
                           "99999999999999999999", ""}) {
    EXPECT_THROW(applied(std::string("seed=") + seed), std::invalid_argument)
        << seed;
  }
}

TEST(ScenarioKeys, IntKeysRejectValuesOutsideInt) {
  for (const std::string& key : kIntKeys) {
    for (const char* value : {"4294967297", "-4294967297", "2147483648",
                              "9223372036854775808"}) {
      EXPECT_THROW(applied(key + "=" + value), std::invalid_argument)
          << key << "=" << value;
    }
  }
  // The int limits themselves still parse (validate judges the range).
  EXPECT_EQ(applied("episodes=2147483647").episodes, 2147483647);
}

TEST(ScenarioKeys, DoubleKeysMustBeFinite) {
  for (const std::string& key : kDoubleKeys) {
    for (const char* value : {"nan", "inf", "-inf", "1e400"}) {
      EXPECT_THROW(apply_and_validate(key + "=" + value),
                   std::invalid_argument)
          << key << "=" << value;
    }
  }
}

TEST(ScenarioKeys, MeanWindowsAreBoundedSoTheirDrawsFitAnInt) {
  EXPECT_THROW(apply_and_validate("fleet.mean_holding=1e12"),
               std::invalid_argument);
  EXPECT_THROW(apply_and_validate("fault.mean_repair=1e12"),
               std::invalid_argument);
  EXPECT_NO_THROW(
      apply_and_validate("fleet.mean_holding=1e6 fault.mean_repair=1e6"));
}

TEST(ScenarioKeys, NodeCoresMustBePositive) {
  EXPECT_THROW(apply_and_validate("node_cores=0"), std::invalid_argument);
  EXPECT_NO_THROW(apply_and_validate("node_cores=1"));
}

TEST(ScenarioFlows, FieldsAreCheckedBeforeUse) {
  for (const char* flow :
       {"udp:cbr:512:nan:0", "udp:cbr:512:inf:0", "udp:cbr:-5:1e6:0",
        "udp:cbr:1e20:1e6:0", "udp:cbr:512.5:1e6:0", "udp:cbr:nan:1e6:0",
        "udp:cbr:512:1e6:-1", "udp:cbr:512:1e6:1e20", "udp:cbr:512:1e6:0.5",
        "udp:mmpp:512:1e6:0:nan", "udp:mmpp:512:1e6:0:2:inf",
        "udp:cbr:512:1e6:", "udp:cbr::1e6:0"}) {
    EXPECT_THROW((void)flow_from_text(flow, 0), std::invalid_argument)
        << flow;
    EXPECT_THROW(applied(std::string("flow0=") + flow), std::invalid_argument)
        << flow;
  }
  const traffic::FlowSpec flow =
      flow_from_text("tcp:mmpp:1518:4e5:1:2.5:0.5", 3);
  EXPECT_EQ(flow.pkt_bytes, 1518u);
  EXPECT_EQ(flow.chain_index, 1);
  EXPECT_EQ(flow_to_text(flow), "tcp:mmpp:1518:400000:1:2.5:0.5");
}

TEST(ScenarioFlows, HugeFamilyIndexIsAnInvalidArgument) {
  for (const char* text :
       {"chain99999999999999999999=firewall",
        "chain0=firewall chain18446744073709551616=nat",
        "flow99999999999999999999=udp:cbr:512:1e6:0"}) {
    EXPECT_THROW(applied(text), std::invalid_argument) << text;
  }
}

// --- the fault.* key family --------------------------------------------------

TEST(FaultSpec, KeysApplySerializeAndRoundTrip) {
  const ScenarioSpec spec = applied(
      "fleet.enabled=1 topology.enabled=1 fault.enabled=1"
      " fault.node_crash_rate=0.25 fault.link_fail_rate=0.1"
      " fault.rack_outage_rate=0.05 fault.rack_size=8 fault.mean_repair=6"
      " fault.replace_downtime_s=2 fault.replace_energy_j=55"
      " fault.wake_storm_prob=0.3 fault.wake_storm_factor=2.5");
  EXPECT_TRUE(spec.fault.enabled);
  EXPECT_DOUBLE_EQ(spec.fault.node_crash_rate, 0.25);
  EXPECT_DOUBLE_EQ(spec.fault.link_fail_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.fault.rack_outage_rate, 0.05);
  EXPECT_EQ(spec.fault.rack_size, 8);
  EXPECT_DOUBLE_EQ(spec.fault.mean_repair_windows, 6.0);
  EXPECT_DOUBLE_EQ(spec.fault.replace_downtime_s, 2.0);
  EXPECT_DOUBLE_EQ(spec.fault.replace_energy_j, 55.0);
  EXPECT_DOUBLE_EQ(spec.fault.wake_storm_prob, 0.3);
  EXPECT_DOUBLE_EQ(spec.fault.wake_storm_factor, 2.5);
  EXPECT_NO_THROW(spec.validate());

  const std::string text = spec.to_text();
  EXPECT_NE(text.find("fault.rack_size=8\n"), std::string::npos);
  EXPECT_NE(text.find("fault.wake_storm_factor=2.5\n"), std::string::npos);
  EXPECT_EQ(applied(text).to_text(), text);
}

TEST(FaultSpec, ValidationNamesTheOffendingField) {
  const auto rejects = [](const std::string& overrides,
                          const std::string& field) {
    try {
      apply_and_validate(overrides);
      ADD_FAILURE() << "accepted " << overrides;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << overrides << " -> " << e.what();
    }
  };
  rejects("fault.node_crash_rate=-1", "fault.node_crash_rate");
  rejects("fault.link_fail_rate=-0.5", "fault.link_fail_rate");
  rejects("fault.rack_outage_rate=-2", "fault.rack_outage_rate");
  rejects("fault.rack_size=0", "fault.rack_size");
  rejects("fault.mean_repair=0", "fault.mean_repair");
  rejects("fault.replace_downtime_s=-1", "fault.replace_downtime_s");
  rejects("fault.replace_energy_j=-1", "fault.replace_energy_j");
  rejects("fault.wake_storm_prob=1.5", "fault.wake_storm_prob");
  rejects("fault.wake_storm_factor=0.5", "fault.wake_storm_factor");
  // Faults are injected by the fleet; link faults need a fabric.
  rejects("fault.enabled=1", "fleet.enabled");
  rejects("fleet.enabled=1 fault.enabled=1 fault.link_fail_rate=0.1",
          "topology.enabled");
}

TEST(FaultSpec, MistypedFaultKeysAreAHardError) {
  for (const char* typo :
       {"fault.enabeld=1", "fault.node_crash=0.1", "fault.mean_repairs=4",
        "faults.enabled=1", "fault.rack=4"}) {
    const Config config = Config::from_string(typo);
    EXPECT_THROW(config.check_known(ScenarioSpec::known_keys(),
                                    ScenarioSpec::known_prefixes()),
                 std::invalid_argument)
        << typo;
  }
  const std::string path = testing::TempDir() + "/gnfv_fault_typo.scenario";
  std::ofstream out(path);
  out << "fault.wake_storm_probability=0.5\n";
  out.close();
  EXPECT_THROW((void)ScenarioSpec::load(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(ScenarioSpec, FileRoundTripsEveryPreset) {
  const std::string path =
      testing::TempDir() + "/gnfv_scenario_every_preset.scenario";
  for (const std::string& name : preset_names()) {
    const ScenarioSpec original = preset(name);
    original.save(path);
    const ScenarioSpec loaded = ScenarioSpec::load(path);
    EXPECT_EQ(loaded.to_text(), original.to_text()) << name;
    EXPECT_EQ(loaded.seed, original.seed) << name;
    EXPECT_EQ(loaded.flows.size(), original.flows.size()) << name;
    EXPECT_EQ(loaded.chain_nfs, original.chain_nfs) << name;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace greennfv::scenario
