#include "common/config.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "common/string_util.hpp"

namespace greennfv {

namespace {

void parse_token(Config& config, std::string_view token) {
  token = trim(token);
  if (token.empty()) return;
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) {
    config.set(std::string(token), "1");
    return;
  }
  config.set(std::string(trim(token.substr(0, eq))),
             std::string(trim(token.substr(eq + 1))));
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config config;
  for (int i = 1; i < argc; ++i) parse_token(config, argv[i]);
  return config;
}

Config Config::from_string(std::string_view text) {
  Config config;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ' ' || text[i] == ',' ||
        text[i] == '\n' || text[i] == '\t') {
      if (i > start) parse_token(config, text.substr(start, i - start));
      start = i + 1;
    }
  }
  return config;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0') {
    throw std::invalid_argument("Config: key '" + key +
                                "' is not a number: " + *value);
  }
  return parsed;
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0') {
    throw std::invalid_argument("Config: key '" + key +
                                "' is not an integer: " + *value);
  }
  if (errno == ERANGE) {
    throw std::invalid_argument("Config: key '" + key +
                                "' is out of 64-bit integer range: " + *value);
  }
  return parsed;
}

int Config::get_int32(const std::string& key, int fallback) const {
  const std::int64_t wide = get_int(key, fallback);
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("Config: key '" + key +
                                "' is out of int range: " + *get(key));
  }
  return static_cast<int>(wide);
}

void Config::check_known(
    const std::vector<std::string>& known_keys,
    const std::vector<std::string>& known_prefixes) const {
  std::string unknown;
  for (const auto& [key, value] : values_) {
    bool found = false;
    for (const auto& known : known_keys) {
      if (key == known) {
        found = true;
        break;
      }
    }
    // Prefixes name indexed families (flow0=, chain12=): the suffix must
    // be a bare index, so "flowz" or "flow_rate" is still a typo.
    for (const auto& prefix : known_prefixes) {
      if (found) break;
      if (key.size() <= prefix.size() ||
          key.compare(0, prefix.size(), prefix) != 0)
        continue;
      found = true;
      for (std::size_t i = prefix.size(); i < key.size(); ++i) {
        if (key[i] < '0' || key[i] > '9') {
          found = false;
          break;
        }
      }
    }
    if (!found) {
      if (!unknown.empty()) unknown += ", ";
      unknown += key;
    }
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("Config: unknown key(s): " + unknown +
                                " (pass help=1 to list accepted keys)");
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  if (*value == "1" || *value == "true" || *value == "yes" || *value == "on")
    return true;
  if (*value == "0" || *value == "false" || *value == "no" || *value == "off")
    return false;
  throw std::invalid_argument("Config: key '" + key +
                              "' is not a boolean: " + *value);
}

}  // namespace greennfv
