#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file string_util.hpp
/// Formatting helpers for the bench harnesses' human-readable tables.

namespace greennfv {

/// printf-style formatting into std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats `value` with `decimals` digits after the point.
[[nodiscard]] std::string format_double(double value, int decimals = 3);

/// Splits on a delimiter; empty fields preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             char delim);

/// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Parses all of `text` as an unsigned decimal integer. Digits only: a sign
/// ("-1" is not 2^64-1), spaces, trailing junk, and values above 2^64-1
/// all give std::nullopt.
[[nodiscard]] std::optional<std::uint64_t> parse_uint64(std::string_view text);

/// Renders an aligned text table (used by every bench binary to print the
/// rows/series the paper reports). All rows must have `header.size()` cells.
[[nodiscard]] std::string render_table(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

}  // namespace greennfv
