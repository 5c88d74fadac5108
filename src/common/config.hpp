#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file config.hpp
/// Tiny key=value configuration parser used by benches and examples to take
/// command-line overrides (e.g. `fig6_maxth_training episodes=4000 seed=7`).

namespace greennfv {

class Config {
 public:
  Config() = default;

  /// Parses `argv[1..argc)` entries of the form key=value. Entries without
  /// '=' are treated as boolean flags set to "1". Later keys override
  /// earlier ones.
  static Config from_args(int argc, const char* const* argv);

  /// Parses a whitespace/comma separated "k=v k2=v2" string.
  static Config from_string(std::string_view text);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Typed getters with defaults. Throw std::invalid_argument on parse
  /// failure (get_int also outside 64-bit range, get_int32 outside int) —
  /// a malformed experiment parameter must not silently fall back, saturate
  /// or wrap around.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] int get_int32(const std::string& key, int fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Rejects mistyped experiment keys: throws std::invalid_argument naming
  /// every key that is neither in `known_keys` nor an indexed-family match
  /// for one of `known_prefixes` (prefix followed by a bare index: flow0=,
  /// chain12= — "flowz" is still a typo). A typo'd key must not silently
  /// select the fallback value.
  void check_known(const std::vector<std::string>& known_keys,
                   const std::vector<std::string>& known_prefixes = {}) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace greennfv
