#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/string_util.hpp"

namespace greennfv {

namespace {

const char* kind_name(Json::Kind kind) {
  switch (kind) {
    case Json::Kind::kNull: return "null";
    case Json::Kind::kBool: return "bool";
    case Json::Kind::kNumber: return "number";
    case Json::Kind::kString: return "string";
    case Json::Kind::kArray: return "array";
    case Json::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(const char* want, Json::Kind got) {
  throw std::invalid_argument(format("Json: expected %s, have %s", want,
                                     kind_name(got)));
}

void escape_into(const std::string& text, std::string& out) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Recursive-descent parser over a byte range.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size())
      fail("trailing characters after the JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(
        format("Json: %s (at byte %zu)", what.c_str(), pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(format("expected '%c'", c));
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json object = Json::object();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parse_string();
      expect(':');
      object.set(key, parse_value());
      const char next = peek();
      ++pos_;
      if (next == '}') return object;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json array = Json::array();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(parse_value());
      const char next = peek();
      ++pos_;
      if (next == ']') return array;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("unknown escape");
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned int code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    // UTF-8 encode the basic-plane code point (artifacts are ASCII; this
    // covers hand-written files too, minus surrogate pairs).
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  Json parse_number() {
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) fail("expected a value");
    pos_ += static_cast<std::size_t>(end - start);
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::array() {
  Json json;
  json.kind_ = Kind::kArray;
  return json;
}

Json Json::object() {
  Json json;
  json.kind_ = Kind::kObject;
  return json;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double Json::as_double() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return number_;
}

double Json::whole_number(double low, double end) const {
  const double value = as_double();
  if (!(value >= low && value < end) || value != std::floor(value)) {
    throw std::invalid_argument(format(
        "Json: expected a whole number in [%.0f, %.0f), have %.17g", low,
        end, value));
  }
  return value;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return string_;
}

void Json::push_back(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  array_.push_back(std::move(value));
}

const std::vector<Json>& Json::elements() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

const Json& Json::at(std::size_t index) const {
  const auto& elems = elements();
  if (index >= elems.size())
    throw std::invalid_argument(
        format("Json: index %zu out of range (size %zu)", index,
               elems.size()));
  return elems[index];
}

void Json::set(const std::string& key, Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  for (auto& [existing, existing_value] : object_) {
    if (existing == key) {
      existing_value = std::move(value);
      return;
    }
  }
  object_.emplace_back(key, std::move(value));
}

bool Json::has(const std::string& key) const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  for (const auto& [existing, unused] : object_)
    if (existing == key) return true;
  return false;
}

const Json& Json::at(const std::string& key) const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  for (const auto& [existing, value] : object_)
    if (existing == key) return value;
  throw std::invalid_argument("Json: missing key '" + key + "'");
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return object_;
}

std::size_t Json::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent) *
                            static_cast<std::size_t>(depth + 1),
                        ' ');
  const std::string close_pad(
      static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
      ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber:
      if (std::isfinite(number_)) {
        // %.17g round-trips every finite double through strtod exactly.
        out += format("%.17g", number_);
      } else {
        // JSON has no inf/nan; emit null so artifacts stay parseable (the
        // consumer's finiteness checks then catch the bad field).
        out += "null";
      }
      break;
    case Kind::kString: escape_into(string_, out); break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += pad;
        array_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < array_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < object_.size(); ++i) {
        out += pad;
        escape_into(object_[i].first, out);
        out += indent > 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < object_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace greennfv
