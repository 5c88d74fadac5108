#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace greennfv {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest runs the cases as parallel processes, and a
  // shared path let one case's TearDown delete another's file.
  std::string path_ =
      std::string("/tmp/gnfv_csv_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    csv.append({1.0, 2.5});
    csv.append({3.0, -4.0});
    csv.flush();
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  EXPECT_EQ(slurp(path_), "a,b\n1,2.5\n3,-4\n");
}

TEST_F(CsvTest, RejectsWidthMismatch) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_DEATH(csv.append({1.0}), "row width");
}

TEST_F(CsvTest, StringRowsEscaped) {
  {
    CsvWriter csv(path_, {"name", "note"});
    csv.append_strings({"plain", "has,comma"});
    csv.append_strings({"quote\"y", "line\nbreak"});
    csv.flush();
  }
  const std::string text = slurp(path_);
  EXPECT_NE(text.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"quote\"\"y\""), std::string::npos);
}

TEST(CsvEscape, PassthroughWhenClean) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, QuotesSpecials) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriterErrors, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
}  // namespace greennfv
