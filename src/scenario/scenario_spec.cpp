#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/string_util.hpp"
#include "hwmodel/nf_cost.hpp"

namespace greennfv::scenario {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("scenario: " + what);
}

std::string fmt_double(double value) { return format("%.10g", value); }

traffic::ArrivalKind arrival_from_string(const std::string& name) {
  if (name == "cbr") return traffic::ArrivalKind::kCbr;
  if (name == "poisson") return traffic::ArrivalKind::kPoisson;
  if (name == "mmpp") return traffic::ArrivalKind::kMmpp;
  if (name == "onoff") return traffic::ArrivalKind::kOnOff;
  fail("unknown arrival kind '" + name + "' (expected cbr|poisson|mmpp|onoff)");
}

/// A numeric flow field: all of `text` must be one finite number.
double flow_number(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value))
    fail("flow " + what + " is not a finite number: " + text);
  return value;
}

/// A flow field stored as an integer (packet size, chain index): a whole
/// number in [0, max], checked before the caller's cast.
double flow_whole(const std::string& text, const std::string& what,
                  double max) {
  const double value = flow_number(text, what);
  if (value < 0.0 || value > max || value != std::floor(value)) {
    fail("flow " + what + " is not a whole number in [0, " +
         fmt_double(max) + "]: " + text);
  }
  return value;
}

// --- the key table ----------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Values validate() accepts for a numeric key: [min, max], or (min, max]
/// when `open_min`. Every double must also be finite, so NaN and inf never
/// reach the engines.
struct Range {
  double min = -kInf;
  double max = kInf;
  bool open_min = false;
};
constexpr Range kAny{};
constexpr Range kNonNegative{0.0};
constexpr Range kPositive{0.0, kInf, true};
constexpr Range kAtLeastOne{1.0};
constexpr Range kFraction{0.0, 1.0};
/// Exponential draws of these means are cast to int window counts; even
/// the largest draw of a 1e6 mean (about 745 means) fits.
constexpr Range kMeanWindows{0.0, 1e6, true};

using Names = const std::vector<std::string>& (*)();

/// One scenario key: its name, how it reads, writes and checks its field,
/// its range if numeric, and the values a string key may take.
struct Key {
  std::string name;  ///< a std::string, so Config lookups copy nothing
  void (*read)(ScenarioSpec&, const Config&, const Key&);
  void (*write)(const ScenarioSpec&, const Key&, std::string&);
  void (*check)(const ScenarioSpec&, const Key&) = nullptr;
  Range range = kAny;
  Names choices = nullptr;
};

// Reading a field costs one Config lookup.
void read_value(const Config& config, const std::string& key, int& value) {
  value = config.get_int32(key, value);
}
void read_value(const Config& config, const std::string& key,
                std::uint64_t& value) {
  const auto text = config.get(key);
  if (!text) return;
  const auto parsed = parse_uint64(*text);
  if (!parsed) fail(key + " is not an unsigned 64-bit integer: " + *text);
  value = *parsed;
}
void read_value(const Config& config, const std::string& key, double& value) {
  value = config.get_double(key, value);
}
void read_value(const Config& config, const std::string& key, bool& value) {
  value = config.get_bool(key, value);
}
void read_value(const Config& config, const std::string& key,
                std::string& value) {
  if (auto text = config.get(key)) value = std::move(*text);
}

// Each enum key's to/from-string pair: to_string writes it (overload
// resolution picks the enum's own), parse_enum reads it.
auto parse_enum(const std::string& text, PlacementPolicy) {
  return placement_from_string(text);
}
auto parse_enum(const std::string& text, traffic::RateProfile::Kind) {
  return traffic::profile_kind_from_string(text);
}
auto parse_enum(const std::string& text, core::SlaKind) {
  return sla_kind_from_string(text);
}
template <typename Enum>
  requires std::is_enum_v<Enum>
void read_value(const Config& config, const std::string& key, Enum& value) {
  if (const auto text = config.get(key)) value = parse_enum(*text, value);
}

void write_value(std::string& out, int value) { out += std::to_string(value); }
void write_value(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}
void write_value(std::string& out, double value) { out += fmt_double(value); }
void write_value(std::string& out, bool value) { out += value ? '1' : '0'; }
void write_value(std::string& out, const std::string& value) { out += value; }
void write_value(std::string& out, core::SlaKind value) {
  out += scenario::to_string(value);  // the key's spelling, not core's
}
template <typename Enum>
  requires std::is_enum_v<Enum>
void write_value(std::string& out, Enum value) {
  out += to_string(value);
}

template <typename T>
void check_value(const Key& key, const T& value) {
  if constexpr (std::is_same_v<T, int> || std::is_same_v<T, double>) {
    const Range& r = key.range;
    if (!std::isfinite(value) || value < r.min || value > r.max ||
        (r.open_min && value == r.min)) {
      fail(format("%s must be a finite number in %c%g, %g], got %s",
                  key.name.c_str(), r.open_min ? '(' : '[', r.min, r.max,
                  fmt_double(value).c_str()));
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!key.choices) return;
    const auto& names = key.choices();
    if (std::find(names.begin(), names.end(), value) != names.end()) return;
    std::string known;
    for (const auto& name : names) known += (known.empty() ? "" : "|") + name;
    fail("unknown " + key.name + " '" + value + "' (expected " + known + ")");
  }
}

/// A scalar key, its operations all reaching the field through `Access`: a
/// captureless lambda that returns the member of a const or mutable spec.
template <typename Access>
Key field(const char* name, Access, Range range = kAny,
          Names choices = nullptr) {
  const auto read = [](ScenarioSpec& spec, const Config& config,
                       const Key& key) {
    read_value(config, key.name, Access{}(spec));
  };
  const auto write = [](const ScenarioSpec& spec, const Key& key,
                        std::string& out) {
    out += key.name;
    out += '=';
    write_value(out, Access{}(spec));
    out += '\n';
  };
  const auto check = [](const ScenarioSpec& spec, const Key& key) {
    check_value(key, Access{}(spec));
  };
  return {name, read, write, check, range, choices};
}

// --- the indexed families (chains=/chainN=, flows=/flowN=) ----------------

/// A count key plus entries prefix0..prefixN-1. Entries, when present,
/// replace the list and fix the count; a count without entries reverts
/// the family to its generated/standard form.
template <typename Entry, typename Parse>
void apply_family(const Config& config, const std::string& count_key,
                  const std::string& prefix, int& count,
                  std::vector<Entry>& entries, Parse parse) {
  const bool has_count = config.has(count_key);
  if (has_count) read_value(config, count_key, count);
  std::vector<Entry> parsed;
  for (int i = 0;; ++i) {
    const auto entry = config.get(prefix + std::to_string(i));
    if (!entry) break;
    parsed.push_back(parse(*entry, i));
  }
  // A gap (chain0 chain1 chain3, or chain1 without chain0) must be an
  // error, not a quietly shorter list; so is an index past 2^64-1.
  for (const auto& [key, value] : config.entries()) {
    if (key.size() <= prefix.size() || !key.starts_with(prefix)) continue;
    const std::string_view digits = std::string_view(key).substr(prefix.size());
    if (digits.find_first_not_of("0123456789") != std::string_view::npos)
      continue;
    const auto index = parse_uint64(digits);
    if (!index || *index >= parsed.size()) {
      fail(key + " leaves a gap — " + prefix +
           "N entries must be contiguous from " + prefix + "0");
    }
  }
  if (parsed.empty()) {
    if (has_count) entries.clear();
    return;
  }
  if (has_count && static_cast<std::size_t>(count) != parsed.size())
    fail(count_key + "= disagrees with the number of " + prefix +
         "N= entries");
  entries = std::move(parsed);
  count = static_cast<int>(entries.size());
}

void apply_chains(ScenarioSpec& spec, const Config& config, const Key& key) {
  apply_family(config, key.name, "chain", spec.num_chains, spec.chain_nfs,
               [](const std::string& text, int) {
                 std::vector<std::string> nfs;
                 for (auto& nf : split(text, '+'))
                   if (!nf.empty()) nfs.push_back(std::move(nf));
                 return nfs;
               });
}

void apply_flows(ScenarioSpec& spec, const Config& config, const Key& key) {
  apply_family(config, key.name, "flow", spec.num_flows, spec.flows,
               flow_from_text);
}

void write_chains(const ScenarioSpec& spec, const Key& key,
                  std::string& out) {
  out += key.name + "=" + std::to_string(spec.num_chains) + "\n";
  for (std::size_t c = 0; c < spec.chain_nfs.size(); ++c) {
    out += "chain" + std::to_string(c) + "=";
    for (std::size_t i = 0; i < spec.chain_nfs[c].size(); ++i)
      out += (i ? "+" : "") + spec.chain_nfs[c][i];
    out += '\n';
  }
}

void write_flows(const ScenarioSpec& spec, const Key& key, std::string& out) {
  out += key.name + "=" + std::to_string(spec.num_flows) + "\n";
  for (std::size_t f = 0; f < spec.flows.size(); ++f)
    out += "flow" + std::to_string(f) + "=" + flow_to_text(spec.flows[f]) +
           "\n";
}

/// One table row: the key, the ScenarioSpec member it sets, and optionally
/// its Range and the names a string key accepts.
#define KEY(name, member, ...)                              \
  field(name, [](auto& spec) -> auto& { return spec.member; } \
        __VA_OPT__(, ) __VA_ARGS__)

/// Every scenario key, once, in to_text() order: apply(), to_text(),
/// validate()'s per-key checks and known_keys() all walk this table.
/// Defaults live only in the member initialisers of scenario_spec.hpp.
/// topology::validate_spec checks the topology.* ranges and names, and
/// RateProfile::validate the profile_* ranges (they depend on the kind).
const std::vector<Key>& key_table() {
  static const std::vector<Key> table = {
      KEY("name", name),
      KEY("nodes", num_nodes, kAtLeastOne),
      KEY("placement", placement),
      KEY("node_cores", node.total_cores, kAtLeastOne),
      KEY("node_fmin_ghz", node.fmin_ghz),
      KEY("node_fmax_ghz", node.fmax_ghz),
      KEY("node_line_rate_gbps", node.line_rate_gbps),
      KEY("node_p_idle_w", node.p_idle_w),
      KEY("node_p_max_w", node.p_max_w),
      KEY("node_p_sleep_w", node.p_sleep_w, kNonNegative),
      KEY("node_wake_latency_s", node.wake_latency_s, kNonNegative),
      KEY("fleet.enabled", fleet.enabled),
      KEY("fleet.horizon", fleet.horizon_windows, kNonNegative),
      KEY("fleet.arrival_rate", fleet.arrival_rate, kNonNegative),
      KEY("fleet.mean_holding", fleet.mean_holding_windows, kMeanWindows),
      KEY("fleet.flows_per_chain", fleet.flows_per_chain, kAtLeastOne),
      KEY("fleet.chain_gbps", fleet.chain_offered_gbps, kPositive),
      KEY("fleet.policy", fleet.policy, kAny, FleetSpec::policy_names),
      KEY("fleet.migration", fleet.migration),
      KEY("fleet.migration_downtime_s", fleet.migration_downtime_s,
          kNonNegative),
      KEY("fleet.migration_energy_j", fleet.migration_energy_j, kNonNegative),
      KEY("fleet.consolidate_below", fleet.consolidate_below, kFraction),
      KEY("fleet.power_gating", fleet.power_gating),
      KEY("fleet.sleep_after", fleet.sleep_after_windows, kAtLeastOne),
      KEY("topology.enabled", topology.enabled),
      KEY("topology.preset", topology.preset),
      KEY("topology.routing", topology.routing),
      KEY("topology.hosts_per_leaf", topology.hosts_per_leaf),
      KEY("topology.spines", topology.spines),
      KEY("topology.fat_k", topology.fat_k),
      KEY("topology.link_gbps", topology.link_gbps),
      KEY("topology.link_latency_us", topology.link_latency_us),
      KEY("topology.core_gbps", topology.core_gbps),
      KEY("topology.core_latency_us", topology.core_latency_us),
      KEY("topology.link_idle_w", topology.link_idle_w),
      KEY("topology.link_nj_per_bit", topology.link_nj_per_bit),
      KEY("sla.latency", latency_sla_us, kNonNegative),
      KEY("fault.enabled", fault.enabled),
      KEY("fault.node_crash_rate", fault.node_crash_rate, kNonNegative),
      KEY("fault.link_fail_rate", fault.link_fail_rate, kNonNegative),
      KEY("fault.rack_outage_rate", fault.rack_outage_rate, kNonNegative),
      KEY("fault.rack_size", fault.rack_size, kAtLeastOne),
      KEY("fault.mean_repair", fault.mean_repair_windows, kMeanWindows),
      KEY("fault.replace_downtime_s", fault.replace_downtime_s, kNonNegative),
      KEY("fault.replace_energy_j", fault.replace_energy_j, kNonNegative),
      KEY("fault.wake_storm_prob", fault.wake_storm_prob, kFraction),
      KEY("fault.wake_storm_factor", fault.wake_storm_factor, kAtLeastOne),
      {"chains", apply_chains, write_chains},
      {"flows", apply_flows, write_flows},
      KEY("offered_gbps", total_offered_gbps),
      KEY("profile", profile.kind),
      KEY("profile_period_s", profile.period_s),
      KEY("profile_amplitude", profile.amplitude),
      KEY("profile_surge_start_s", profile.surge_start_s),
      KEY("profile_surge_duration_s", profile.surge_duration_s),
      KEY("profile_surge_factor", profile.surge_factor),
      KEY("sla", sla_kind),
      KEY("energy_budget", energy_budget_j),
      KEY("throughput_floor", throughput_floor_gbps),
      KEY("shaped_reward", shaped_reward),
      KEY("window_s", window_s, kPositive),
      KEY("sub_windows", sub_windows, kAtLeastOne),
      KEY("steps_per_episode", steps_per_episode, kAtLeastOne),
      KEY("eval_windows", eval_windows, kAtLeastOne),
      KEY("episodes", episodes, kAtLeastOne),
      KEY("q_episodes", q_episodes, kAtLeastOne),
      KEY("candidates", candidates, kAtLeastOne),
      KEY("prioritized", prioritized_replay),
      KEY("noise_sigma", noise_sigma, kNonNegative),
      KEY("noise_decay", noise_decay, Range{0.0, 1.0, true}),
      KEY("seed", seed),
  };
  return table;
}

#undef KEY

}  // namespace

std::string to_string(core::SlaKind kind) {
  switch (kind) {
    case core::SlaKind::kMaxThroughput: return "maxt";
    case core::SlaKind::kMinEnergy: return "mine";
    case core::SlaKind::kEnergyEfficiency: return "ee";
  }
  return "ee";
}

core::SlaKind sla_kind_from_string(const std::string& name) {
  if (name == "maxt") return core::SlaKind::kMaxThroughput;
  if (name == "mine") return core::SlaKind::kMinEnergy;
  if (name == "ee") return core::SlaKind::kEnergyEfficiency;
  fail("unknown sla '" + name + "' (expected maxt|mine|ee)");
}

std::string to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFirstFitDecreasing: return "first-fit-decreasing";
    case PlacementPolicy::kLeastLoaded: return "least-loaded";
    case PlacementPolicy::kEnergyBestFit: return "energy-bestfit";
  }
  return "?";
}

PlacementPolicy placement_from_string(const std::string& name) {
  if (name == "least-loaded" || name == "balanced")
    return PlacementPolicy::kLeastLoaded;
  if (name == "first-fit-decreasing" || name == "ffd")
    return PlacementPolicy::kFirstFitDecreasing;
  if (name == "energy-bestfit" || name == "bestfit")
    return PlacementPolicy::kEnergyBestFit;
  fail("unknown placement '" + name +
       "' (expected least-loaded|first-fit-decreasing|energy-bestfit)");
}

std::string flow_to_text(const traffic::FlowSpec& flow) {
  return traffic::to_string(flow.proto) + ":" +
         traffic::to_string(flow.arrival) + ":" +
         format("%u", flow.pkt_bytes) + ":" + fmt_double(flow.mean_rate_pps) +
         ":" + format("%d", flow.chain_index) + ":" +
         fmt_double(flow.peak_to_mean) + ":" + fmt_double(flow.dwell_s);
}

traffic::FlowSpec flow_from_text(const std::string& text, int id) {
  const std::vector<std::string> fields = split(text, ':');
  if (fields.size() < 5 || fields.size() > 7) {
    fail("flow '" + text +
         "' must be proto:arrival:pkt_bytes:rate_pps:chain"
         "[:peak_to_mean[:dwell_s]]");
  }
  traffic::FlowSpec flow;
  flow.id = id;
  if (fields[0] != "udp" && fields[0] != "tcp")
    fail("flow protocol '" + fields[0] + "' (expected udp|tcp)");
  flow.proto = fields[0] == "tcp" ? traffic::Protocol::kTcp
                                  : traffic::Protocol::kUdp;
  flow.arrival = arrival_from_string(fields[1]);
  flow.pkt_bytes = static_cast<std::uint32_t>(flow_whole(
      fields[2], "pkt_bytes", std::numeric_limits<std::uint32_t>::max()));
  flow.mean_rate_pps = flow_number(fields[3], "rate_pps");
  flow.chain_index = static_cast<int>(flow_whole(
      fields[4], "chain index", std::numeric_limits<int>::max()));
  if (fields.size() > 5)
    flow.peak_to_mean = flow_number(fields[5], "peak_to_mean");
  if (fields.size() > 6) flow.dwell_s = flow_number(fields[6], "dwell_s");
  return flow;
}

const std::vector<std::string>& FleetSpec::policy_names() {
  static const std::vector<std::string> names = {
      "first-fit", "least-loaded", "energy-bestfit", "consolidate",
      "topology-aware-bestfit"};
  return names;
}

core::Sla ScenarioSpec::sla() const { return sla(sla_kind); }

core::Sla ScenarioSpec::sla(core::SlaKind kind) const {
  switch (kind) {
    case core::SlaKind::kMaxThroughput:
      return core::Sla::max_throughput(energy_budget_j);
    case core::SlaKind::kMinEnergy:
      return core::Sla::min_energy(throughput_floor_gbps,
                                   node.p_max_w * window_s);
    case core::SlaKind::kEnergyEfficiency:
      return core::Sla::energy_efficiency();
  }
  return core::Sla::energy_efficiency();
}

core::EnvConfig ScenarioSpec::env_config() const {
  core::EnvConfig env;
  env.spec = node;
  env.num_chains = num_chains;
  env.num_flows = num_flows;
  env.total_offered_gbps = total_offered_gbps;
  env.window_s = window_s;
  env.sub_windows = sub_windows;
  env.steps_per_episode = steps_per_episode;
  env.sla = sla();
  env.shaped_reward = shaped_reward;
  env.flows = flows;
  env.chain_nfs = chain_nfs;
  env.rate_profile = profile;
  return env;
}

core::TrainerConfig ScenarioSpec::trainer_config(const core::Sla& sla)
    const {
  core::TrainerConfig trainer;
  trainer.env = env_config();
  trainer.env.sla = sla;
  trainer.episodes = episodes;
  trainer.seed = seed;
  trainer.prioritized_replay = prioritized_replay;
  trainer.noise_sigma = noise_sigma;
  trainer.noise_decay = noise_decay;
  return trainer;
}

void ScenarioSpec::apply(const Config& config) {
  for (const Key& key : key_table()) key.read(*this, config, key);
}

std::string ScenarioSpec::to_text() const {
  std::string out;
  for (const Key& key : key_table()) key.write(*this, key, out);
  return out;
}

void ScenarioSpec::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("scenario: cannot write " + path);
  out << "# GreenNFV scenario file (key=value; '#' to end of line is a"
         " comment)\n";
  out << to_text();
  if (!out) throw std::runtime_error("scenario: failed writing " + path);
}

ScenarioSpec ScenarioSpec::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("scenario: cannot read " + path);
  std::string text;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    text += line;
    text += "\n";
  }
  const Config config = Config::from_string(text);
  config.check_known(known_keys(), known_prefixes());
  ScenarioSpec spec;
  spec.apply(config);
  spec.validate();
  return spec;
}

void ScenarioSpec::validate() const {
  for (const Key& key : key_table())
    if (key.check) key.check(*this, key);

  // --- cross-field rules ---------------------------------------------------
  if (num_chains < 1) fail("need at least one chain (zero-chain topology)");
  if (flows.empty()) {
    if (num_flows < 1) fail("empty traffic mix (no flows)");
    if (total_offered_gbps <= 0.0) fail("offered_gbps must be positive");
  } else {
    for (const auto& flow : flows) {
      traffic::validate(flow);
      if (flow.mean_rate_pps <= 0.0) fail("flow rates must be positive");
      if (flow.chain_index >= num_chains)
        fail(format("flow %d targets chain %d but only %d chains exist",
                    flow.id, flow.chain_index, num_chains));
    }
  }
  if (!chain_nfs.empty()) {
    if (chain_nfs.size() != static_cast<std::size_t>(num_chains))
      fail("chainN entries must cover every chain");
    for (const auto& nfs : chain_nfs) {
      if (nfs.empty()) fail("chain with no NFs");
      for (const auto& nf : nfs)
        (void)hwmodel::nf_catalog::by_name(nf);  // throws on unknown names
    }
  }
  profile.validate();
  if (sla_kind == core::SlaKind::kMaxThroughput && energy_budget_j <= 0.0)
    fail("energy_budget must be positive for the maxt SLA");
  if (sla_kind == core::SlaKind::kMinEnergy && throughput_floor_gbps <= 0.0)
    fail("throughput_floor must be positive for the mine SLA");
  if (num_nodes > 1 && num_chains < num_nodes && !fleet.enabled)
    fail("cluster runs need at least one chain per node");
  // Sleep draw above idle draw only matters (and only makes gating
  // nonsensical) when the orchestrator actually gates nodes — a plain
  // scenario with a tiny node_p_idle_w must stay valid as before.
  if (fleet.enabled && node.p_sleep_w > node.p_idle_w)
    fail("node_p_sleep_w must be <= node_p_idle_w for fleet runs");

  // Topology name/numeric checks always run (campaign expansion rejects a
  // typo'd topology.preset on disabled cells too); host-capacity fit binds
  // only when the fabric is actually built.
  topology::validate_spec(topology, num_nodes);
  if (topology.enabled && !fleet.enabled)
    fail("topology.enabled=1 requires fleet.enabled=1 (the fabric is routed"
         " by the fleet orchestrator)");
  if (latency_sla_us > 0.0 && !topology.enabled)
    fail("sla.latency needs topology.enabled=1 (path latency comes from the"
         " fabric)");
  if (fault.enabled && !fleet.enabled)
    fail("fault.enabled=1 requires fleet.enabled=1 (faults are injected by"
         " the fleet orchestrator)");
  if (fault.enabled && fault.link_fail_rate > 0.0 && !topology.enabled)
    fail("fault.link_fail_rate needs topology.enabled=1 (there is no fabric"
         " to fail)");
}

const std::vector<std::string>& ScenarioSpec::known_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> names = {"scenario", "scenario_file"};
    for (const Key& key : key_table()) names.push_back(key.name);
    return names;
  }();
  return keys;
}

const std::vector<std::string>& ScenarioSpec::known_prefixes() {
  static const std::vector<std::string> prefixes = {"chain", "flow"};
  return prefixes;
}

}  // namespace greennfv::scenario
