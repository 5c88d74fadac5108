#include "campaign/campaign_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "scenario/presets.hpp"

namespace greennfv::campaign {

namespace {

constexpr const char* kSweepPrefix = "sweep.";

bool is_indexed_family(const std::string& key) {
  for (const std::string& prefix : scenario::ScenarioSpec::known_prefixes()) {
    if (key.size() <= prefix.size() ||
        key.compare(0, prefix.size(), prefix) != 0)
      continue;
    bool all_digits = true;
    for (std::size_t i = prefix.size(); i < key.size(); ++i)
      all_digits = all_digits && key[i] >= '0' && key[i] <= '9';
    if (all_digits) return true;
  }
  return false;
}

/// A key the per-run ScenarioSpec::apply understands ("scenario" /
/// "scenario_file" excluded: the campaign owns scenario selection).
bool is_scenario_override(const std::string& key) {
  if (key == "scenario" || key == "scenario_file") return false;
  const auto& keys = scenario::ScenarioSpec::known_keys();
  if (std::find(keys.begin(), keys.end(), key) != keys.end()) return true;
  return is_indexed_family(key);
}

std::vector<std::string> split_list(const std::string& csv,
                                    const std::string& what) {
  std::vector<std::string> values;
  for (const auto& token : split(csv, ',')) {
    const std::string value(trim(token));
    if (!value.empty()) values.push_back(value);
  }
  if (values.empty())
    throw std::invalid_argument("campaign: " + what + " lists no values");
  return values;
}

/// Advances a mixed-radix counter (last axis fastest); false on wrap.
bool advance(std::vector<std::size_t>& digits,
             const std::vector<SweepAxis>& axes) {
  for (std::size_t a = axes.size(); a-- > 0;) {
    if (++digits[a] < axes[a].values.size()) return true;
    digits[a] = 0;
  }
  return false;
}

std::uint64_t parse_seed(const std::string& text) {
  const auto value = parse_uint64(text);
  if (!value) {
    throw std::invalid_argument(
        "campaign: seed is not an unsigned 64-bit integer: " + text);
  }
  return *value;
}

}  // namespace

std::string sanitize_token(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
        c == '-') {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

Config config_from_lines(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      config.set(std::string(trimmed), "1");
    } else {
      config.set(std::string(trim(trimmed.substr(0, eq))),
                 std::string(trim(trimmed.substr(eq + 1))));
    }
  }
  return config;
}

void CampaignSpec::apply(const Config& config) {
  for (const auto& [key, value] : config.entries()) {
    if (key == "campaign" || key == "campaign_file") continue;  // CLI-level
    if (key == "name") {
      name = value;
    } else if (key == "scenario") {
      scenarios = {value};
    } else if (key == "scenarios") {
      scenarios = split_list(value, "scenarios=");
    } else if (key == "models") {
      models = value;
    } else if (key == "seeds") {
      seeds.clear();
      for (const auto& token : split_list(value, "seeds="))
        seeds.push_back(parse_seed(token));
    } else if (key == "auto_seeds") {
      auto_seeds = config.get_int32("auto_seeds", auto_seeds);
    } else if (key.rfind(kSweepPrefix, 0) == 0) {
      const std::string axis_key = key.substr(std::strlen(kSweepPrefix));
      if (!is_scenario_override(axis_key)) {
        throw std::invalid_argument(
            "campaign: sweep axis '" + key +
            "' does not name a scenario key (help=1 lists them)");
      }
      SweepAxis axis{axis_key, split_list(value, key + "=")};
      auto existing = std::find_if(
          axes.begin(), axes.end(),
          [&axis_key](const SweepAxis& a) { return a.key == axis_key; });
      if (existing != axes.end()) {
        *existing = std::move(axis);
      } else {
        axes.push_back(std::move(axis));
      }
    } else if (is_scenario_override(key)) {
      overrides.set(key, value);
    } else {
      throw std::invalid_argument(
          "campaign: unknown key '" + key +
          "' (campaign keys, sweep.<scenario-key>=, or scenario"
          " overrides; pass help=1 to list them)");
    }
  }
  // Key order, not arrival order, fixes the matrix layout.
  std::sort(axes.begin(), axes.end(),
            [](const SweepAxis& a, const SweepAxis& b) {
              return a.key < b.key;
            });
}

std::vector<std::uint64_t> CampaignSpec::seeds_for(
    std::uint64_t base_seed) const {
  if (!seeds.empty()) return seeds;
  std::vector<std::uint64_t> derived;
  derived.reserve(static_cast<std::size_t>(auto_seeds));
  derived.push_back(base_seed);  // seed 0 IS the single-run seed
  Rng rng(base_seed);
  for (int i = 1; i < auto_seeds; ++i) derived.push_back(rng.next_u64());
  return derived;
}

std::vector<RunSpec> CampaignSpec::expand() const {
  validate();

  // The scenario axis: explicit base spec, or each named preset.
  std::vector<scenario::ScenarioSpec> bases;
  if (base.has_value()) {
    bases.push_back(*base);
  } else {
    for (const std::string& preset_name : scenarios)
      bases.push_back(scenario::preset(preset_name));
  }

  std::vector<RunSpec> matrix;
  for (const scenario::ScenarioSpec& base_spec : bases) {
    // Mixed-radix counter over the sweep axes (first axis outermost).
    std::vector<std::size_t> digits(axes.size(), 0);
    while (true) {
      Config cell_config = overrides;
      std::vector<std::pair<std::string, std::string>> assignments;
      for (std::size_t a = 0; a < axes.size(); ++a) {
        cell_config.set(axes[a].key, axes[a].values[digits[a]]);
        assignments.emplace_back(axes[a].key, axes[a].values[digits[a]]);
      }

      scenario::ScenarioSpec cell = base_spec;
      cell.apply(cell_config);
      cell.validate();

      std::string cell_id = sanitize_token(base_spec.name);
      for (const auto& [key, value] : assignments)
        cell_id += "__" + sanitize_token(key) + "-" + sanitize_token(value);

      for (const std::uint64_t seed : seeds_for(cell.seed)) {
        RunSpec run;
        run.index = matrix.size();
        run.cell_id = cell_id;
        run.run_id =
            cell_id + "__s" +
            format("%llu", static_cast<unsigned long long>(seed));
        run.scenario_name = base_spec.name;
        run.assignments = assignments;
        run.seed = seed;
        run.scenario = cell;
        run.scenario.seed = seed;
        matrix.push_back(std::move(run));
      }

      if (!advance(digits, axes)) break;
    }
  }

  // Unique ids are what keep parallel artifact writes and aggregation
  // honest: duplicate seeds/axis values (or sanitize collisions like
  // "a b" vs "a_b") must fail here, not race on one file.
  std::set<std::string> ids;
  for (const RunSpec& run : matrix) {
    if (!ids.insert(run.run_id).second) {
      throw std::invalid_argument(
          "campaign: duplicate run id '" + run.run_id +
          "' (repeated seed or axis value, or two values that sanitize"
          " to the same token)");
    }
  }
  return matrix;
}

std::string CampaignSpec::to_text() const {
  std::ostringstream out;
  out << "name=" << name << "\n";
  if (!base.has_value()) {
    out << "scenarios=";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (i) out << ",";
      out << scenarios[i];
    }
    out << "\n";
  }
  if (!models.empty()) out << "models=" << models << "\n";
  if (!seeds.empty()) {
    out << "seeds=";
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      if (i) out << ",";
      out << seeds[i];
    }
    out << "\n";
  } else {
    out << "auto_seeds=" << auto_seeds << "\n";
  }
  for (const SweepAxis& axis : axes) {
    out << kSweepPrefix << axis.key << "=";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i) out << ",";
      out << axis.values[i];
    }
    out << "\n";
  }
  for (const auto& [key, value] : overrides.entries())
    out << key << "=" << value << "\n";
  return out.str();
}

void CampaignSpec::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("campaign: cannot write " + path);
  out << "# GreenNFV campaign file (one key=value per line; '#' to end of"
         " line\n# is a comment; values may contain commas)\n";
  out << to_text();
  if (!out) throw std::runtime_error("campaign: failed writing " + path);
}

CampaignSpec CampaignSpec::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("campaign: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  CampaignSpec spec;
  spec.apply(config_from_lines(buffer.str()));
  spec.validate();
  return spec;
}

void CampaignSpec::validate() const {
  if (sanitize_token(name).empty())
    throw std::invalid_argument(
        "campaign: name must contain something filesystem-safe");
  if (!base.has_value() && scenarios.empty())
    throw std::invalid_argument("campaign: no scenarios to sweep");
  for (const SweepAxis& axis : axes) {
    if (axis.values.empty())
      throw std::invalid_argument("campaign: sweep axis '" + axis.key +
                                  "' has no values");
    const auto duplicates =
        std::count_if(axes.begin(), axes.end(), [&axis](const SweepAxis& a) {
          return a.key == axis.key;
        });
    if (duplicates != 1)
      throw std::invalid_argument("campaign: duplicate sweep axis '" +
                                  axis.key + "'");
  }
  if (seeds.empty() && auto_seeds < 1)
    throw std::invalid_argument("campaign: auto_seeds must be >= 1");
}

const std::vector<std::string>& CampaignSpec::known_keys() {
  static const std::vector<std::string> keys = {
      "campaign", "campaign_file", "name",  "scenario",
      "scenarios", "models",       "seeds", "auto_seeds",
  };
  return keys;
}

}  // namespace greennfv::campaign
