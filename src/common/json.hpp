#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

/// \file json.hpp
/// Minimal JSON value type for machine-readable experiment artifacts
/// (campaign manifests, per-run results, recorder exports, perf files).
/// Objects preserve insertion order so emitted files are stable and
/// diffable; numbers are formatted with "%.17g" so every finite double
/// round-trips bit-for-bit through dump() -> parse() — resumed campaigns
/// must reproduce aggregates exactly, not approximately.

namespace greennfv {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  ///< null
  Json(bool value) : kind_(Kind::kBool), bool_(value) {}          // NOLINT
  Json(double value) : kind_(Kind::kNumber), number_(value) {}    // NOLINT
  Json(int value) : Json(static_cast<double>(value)) {}           // NOLINT
  Json(const char* value)                                         // NOLINT
      : kind_(Kind::kString), string_(value) {}
  Json(std::string value)                                         // NOLINT
      : kind_(Kind::kString), string_(std::move(value)) {}

  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Scalar accessors. Throw std::invalid_argument on kind mismatch — an
  /// artifact with the wrong shape must fail loudly, not read as 0.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  /// The number as a T. Throws std::invalid_argument unless it is a whole
  /// number T can hold — a count or an index read from an artifact must
  /// not be truncated or wrap.
  template <typename T>
  [[nodiscard]] T as_integer() const {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    // One past T's maximum (2^digits), exact as a double.
    constexpr double kEnd =
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    return static_cast<T>(whole_number(std::is_signed_v<T> ? -kEnd : 0.0,
                                       kEnd));
  }

  // --- arrays --------------------------------------------------------------
  void push_back(Json value);
  [[nodiscard]] const std::vector<Json>& elements() const;
  [[nodiscard]] const Json& at(std::size_t index) const;

  // --- objects -------------------------------------------------------------
  /// Inserts or overwrites a member (creation order is emission order).
  void set(const std::string& key, Json value);
  [[nodiscard]] bool has(const std::string& key) const;
  /// Throws std::invalid_argument naming the missing key.
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const;

  /// Number of elements (array) or members (object); 0 for scalars.
  [[nodiscard]] std::size_t size() const;

  /// Serializes. `indent` > 0 pretty-prints with that many spaces per
  /// level; 0 emits the compact single-line form.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  /// Throws std::invalid_argument with the byte offset of the problem.
  [[nodiscard]] static Json parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  /// as_double(), checked to be a whole number in [low, end).
  [[nodiscard]] double whole_number(double low, double end) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace greennfv
