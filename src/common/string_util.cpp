#include "common/string_util.hpp"

#include <charconv>
#include <cstdarg>
#include <cstdio>

#include "common/assert.hpp"

namespace greennfv {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string format_double(double value, int decimals) {
  return format("%.*f", decimals, value);
}

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view trim(std::string_view text) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

std::optional<std::uint64_t> parse_uint64(std::string_view text) {
  const char* const end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

std::string render_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows) {
  GNFV_REQUIRE(!header.empty(), "render_table: empty header");
  const std::size_t cols = header.size();
  std::vector<std::size_t> widths(cols);
  for (std::size_t c = 0; c < cols; ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    GNFV_REQUIRE(row.size() == cols, "render_table: row width mismatch");
    for (std::size_t c = 0; c < cols; ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }

  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cols; ++c) {
      out += cells[c];
      out.append(widths[c] - cells[c].size(), ' ');
      out += (c + 1 == cols) ? "\n" : "  ";
    }
  };
  emit_row(header);
  for (std::size_t c = 0; c < cols; ++c) {
    out.append(widths[c], '-');
    out += (c + 1 == cols) ? "\n" : "  ";
  }
  for (const auto& row : rows) emit_row(row);
  return out;
}

}  // namespace greennfv
