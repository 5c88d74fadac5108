#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/series.hpp"

/// Unit coverage for the columnar time-series sampler: fixed schema,
/// arena-backed growth, %.17g round-trips through both export formats,
/// and the global runtime gate.

namespace greennfv::telemetry {
namespace {

std::vector<std::string> abc() { return {"a", "b", "c"}; }

TEST(SeriesTable, GateIsOffByDefaultAndToggles) {
  EXPECT_FALSE(series::enabled());
  series::set_enabled(true);
  EXPECT_TRUE(series::enabled());
  series::set_enabled(false);
  EXPECT_FALSE(series::enabled());
}

TEST(SeriesTable, AppendAndReadBack) {
  SeriesTable table(abc());
  table.append_row({1.0, 2.0, 3.0});
  table.append_row({4.0, 5.0, 6.0});
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.num_columns(), 3u);
  EXPECT_EQ(table.column_index("b"), 1u);
  EXPECT_TRUE(table.has_column("c"));
  EXPECT_FALSE(table.has_column("z"));
  EXPECT_DOUBLE_EQ(table.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(table.at(1, 2), 6.0);
}

TEST(SeriesTable, RejectsMalformedSchemasAndRows) {
  EXPECT_THROW(SeriesTable({}), std::invalid_argument);
  EXPECT_THROW(SeriesTable({"a", ""}), std::invalid_argument);
  SeriesTable table(abc());
  EXPECT_THROW(table.append_row({1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)table.column_index("nope"), std::invalid_argument);
  table.append_row({1.0, 2.0, 3.0});
  EXPECT_THROW((void)table.at(1, 0), std::invalid_argument);
  EXPECT_THROW((void)table.at(0, 3), std::invalid_argument);
}

TEST(SeriesTable, GrowsPastInitialCapacityWithoutLosingRows) {
  // The arena block starts at 64 rows; 1000 appends cross several
  // doublings. Every value must survive the copies.
  SeriesTable table({"x", "y"});
  for (int i = 0; i < 1000; ++i) {
    table.append_row({static_cast<double>(i), static_cast<double>(i) * 0.5});
  }
  ASSERT_EQ(table.num_rows(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(table.at(static_cast<std::size_t>(i), 0),
                     static_cast<double>(i));
    EXPECT_DOUBLE_EQ(table.at(static_cast<std::size_t>(i), 1),
                     static_cast<double>(i) * 0.5);
  }
}

TEST(SeriesTable, JsonRoundTripIsBitExact) {
  SeriesTable table(abc());
  // Awkward doubles: %.17g must round-trip all of them exactly.
  table.append_row({0.1, 1.0 / 3.0, 1e-300});
  table.append_row({-0.0, 12345678.901234567, 2.2250738585072014e-308});
  const SeriesTable back = SeriesTable::from_json(table.to_json());
  EXPECT_EQ(back.columns(), table.columns());
  ASSERT_EQ(back.num_rows(), table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(back.at(r, c), table.at(r, c)) << r << "," << c;
    }
  }
  EXPECT_EQ(back.to_csv(), table.to_csv());
}

TEST(SeriesTable, CsvRoundTripIsBitExact) {
  SeriesTable table({"left", "right"});
  table.append_row({3.141592653589793, -1e22});
  table.append_row({0.30000000000000004, 7.0});
  const SeriesTable back = SeriesTable::from_csv(table.to_csv());
  EXPECT_EQ(back.columns(), table.columns());
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.at(0, 0), table.at(0, 0));
  EXPECT_EQ(back.at(0, 1), table.at(0, 1));
  EXPECT_EQ(back.at(1, 0), table.at(1, 0));
  EXPECT_EQ(back.to_json().dump(), table.to_json().dump());
}

TEST(SeriesTable, FromJsonRejectsForeignDocuments) {
  EXPECT_THROW((void)SeriesTable::from_json(Json::parse("{}")),
               std::invalid_argument);
  EXPECT_THROW((void)SeriesTable::from_json(
                   Json::parse("{\"schema\":\"other.v1\"}")),
               std::invalid_argument);
}

TEST(SeriesTable, FromJsonRejectsRowCountsThatAreNotWholeNumbers) {
  SeriesTable table(abc());
  table.append_row({1.0, 2.0, 3.0});
  table.append_row({4.0, 5.0, 6.0});
  Json json = table.to_json();
  // Two-sample columns: a truncating read would load 2.5 as 2 rows.
  for (const double rows : {2.5, -1.0}) {
    json.set("rows", rows);
    EXPECT_THROW((void)SeriesTable::from_json(json), std::invalid_argument)
        << rows;
  }
  json.set("rows", 2.0);
  EXPECT_EQ(SeriesTable::from_json(json).num_rows(), 2u);
}

TEST(SeriesTable, FromCsvRejectsRaggedRows) {
  EXPECT_THROW((void)SeriesTable::from_csv("a,b\n1,2,3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)SeriesTable::from_csv(""), std::invalid_argument);
}

}  // namespace
}  // namespace greennfv::telemetry
