#include "common/string_util.hpp"

#include <gtest/gtest.h>

namespace greennfv {
namespace {

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Split, BasicAndEmptyFields) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Split, NoDelimiter) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Trim, StripsWhitespace) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(ParseUint64, AcceptsDigitsOnlyOverTheWholeRange) {
  EXPECT_EQ(parse_uint64("0"), 0u);
  EXPECT_EQ(parse_uint64("42"), 42u);
  EXPECT_EQ(parse_uint64("18446744073709551615"), 18446744073709551615ull);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1e3",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(parse_uint64(bad).has_value()) << '"' << bad << '"';
  }
}

TEST(RenderTable, AlignsColumns) {
  const std::string table =
      render_table({"name", "v"}, {{"a", "1"}, {"long_name", "22"}});
  // Header, separator, two rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 4);
  EXPECT_NE(table.find("long_name"), std::string::npos);
  EXPECT_NE(table.find("----"), std::string::npos);
}

TEST(RenderTable, RejectsWidthMismatch) {
  EXPECT_DEATH((void)render_table({"a", "b"}, {{"only_one"}}), "width");
}

}  // namespace
}  // namespace greennfv
