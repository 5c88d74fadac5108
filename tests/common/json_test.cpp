#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/json.hpp"
#include "telemetry/recorder.hpp"

/// Json contract: dump() -> parse() preserves every finite double bit for
/// bit (campaign resume depends on it), objects keep insertion order,
/// malformed documents throw, and the telemetry recorder round-trips
/// through its JSON form exactly.

namespace greennfv {
namespace {

TEST(Json, ScalarKindsAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_DOUBLE_EQ(Json(2.5).as_double(), 2.5);
  EXPECT_EQ(Json("hi").as_string(), "hi");
  EXPECT_THROW((void)Json(2.5).as_string(), std::invalid_argument);
  EXPECT_THROW((void)Json("hi").as_double(), std::invalid_argument);
}

TEST(Json, AsIntegerAcceptsOnlyWholeNumbersItsTypeHolds) {
  EXPECT_EQ(Json(7).as_integer<int>(), 7);
  EXPECT_EQ(Json(-3).as_integer<int>(), -3);
  EXPECT_EQ(Json(0x1p63).as_integer<std::uint64_t>(), std::uint64_t{1} << 63);
  EXPECT_EQ(Json(-0x1p31).as_integer<int>(),
            std::numeric_limits<int>::min());
  for (const double bad : {2.5, -0.5, 1e-300}) {
    EXPECT_THROW((void)Json(bad).as_integer<int>(), std::invalid_argument)
        << bad;
  }
  EXPECT_THROW((void)Json(-1).as_integer<std::size_t>(),
               std::invalid_argument);
  EXPECT_THROW((void)Json(0x1p31).as_integer<int>(), std::invalid_argument);
  EXPECT_THROW((void)Json(0x1p64).as_integer<std::uint64_t>(),
               std::invalid_argument);
  EXPECT_THROW(
      (void)Json(std::numeric_limits<double>::infinity()).as_integer<int>(),
      std::invalid_argument);
  EXPECT_THROW((void)Json("7").as_integer<int>(), std::invalid_argument);
}

TEST(Json, DumpParseRoundTripPreservesDoublesExactly) {
  const double values[] = {1.0 / 3.0,
                           -0.0,
                           1e-300,
                           1e300,
                           3.141592653589793,
                           -123456.789012345678,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  Json array = Json::array();
  for (const double v : values) array.push_back(v);
  const Json parsed = Json::parse(array.dump());
  ASSERT_EQ(parsed.size(), std::size(values));
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const double back = parsed.at(i).as_double();
    // Bit-identical, not just approximately equal.
    EXPECT_EQ(back, values[i]);
    EXPECT_EQ(std::signbit(back), std::signbit(values[i]));
  }
}

TEST(Json, ObjectPreservesInsertionOrderAndOverwrites) {
  Json object = Json::object();
  object.set("zebra", 1);
  object.set("alpha", 2);
  object.set("mid", 3);
  object.set("zebra", 4);  // overwrite keeps the original position
  ASSERT_EQ(object.size(), 3u);
  EXPECT_EQ(object.members()[0].first, "zebra");
  EXPECT_EQ(object.members()[1].first, "alpha");
  EXPECT_EQ(object.members()[2].first, "mid");
  EXPECT_DOUBLE_EQ(object.at("zebra").as_double(), 4.0);
  EXPECT_TRUE(object.has("alpha"));
  EXPECT_FALSE(object.has("beta"));
  EXPECT_THROW((void)object.at("beta"), std::invalid_argument);
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g/h";
  Json object = Json::object();
  object.set(nasty, nasty);
  const Json parsed = Json::parse(object.dump(2));
  EXPECT_EQ(parsed.members()[0].first, nasty);
  EXPECT_EQ(parsed.at(nasty).as_string(), nasty);
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(Json, NestedStructuresSurviveCompactAndPrettyDump) {
  Json inner = Json::object();
  inner.set("list", Json::array());
  Json root = Json::object();
  root.set("empty_obj", Json::object());
  root.set("nested", std::move(inner));
  Json runs = Json::array();
  runs.push_back(Json());
  runs.push_back(false);
  root.set("runs", std::move(runs));
  for (const int indent : {0, 1, 4}) {
    const Json parsed = Json::parse(root.dump(indent));
    EXPECT_EQ(parsed.at("empty_obj").size(), 0u);
    EXPECT_EQ(parsed.at("nested").at("list").size(), 0u);
    EXPECT_TRUE(parsed.at("runs").at(0).is_null());
    EXPECT_FALSE(parsed.at("runs").at(1).as_bool());
  }
}

TEST(Json, MalformedDocumentsThrow) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated",
        "[1] trailing", "{'single': 1}", "{\"a\":1,}"}) {
    EXPECT_THROW((void)Json::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, NonFiniteNumbersEmitNull) {
  Json array = Json::array();
  array.push_back(std::numeric_limits<double>::infinity());
  array.push_back(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(array.dump(), "[null,null]");
}

TEST(RecorderJson, RoundTripIsExactAndCarriesSummaries) {
  telemetry::Recorder recorder;
  const double samples[] = {0.1, -3.7, 1.0 / 3.0, 42.0, 1e-9};
  for (std::size_t i = 0; i < std::size(samples); ++i) {
    recorder.record("throughput_gbps", static_cast<double>(i), samples[i]);
    recorder.record("energy_j", 10.0 * static_cast<double>(i),
                    samples[i] * 7.0);
  }

  const Json json = recorder.to_json();
  const telemetry::Recorder restored =
      telemetry::Recorder::from_json(Json::parse(json.dump(1)));

  ASSERT_EQ(restored.num_series(), recorder.num_series());
  for (const std::string& name : recorder.series_names()) {
    const TimeSeries& a = recorder.series(name);
    const TimeSeries& b = restored.series(name);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.times()[i], b.times()[i]);
      EXPECT_EQ(a.values()[i], b.values()[i]);
    }
    // The summary block matches the stats recomputed from the restored
    // series.
    const Json& summary = json.at("series").at(name).at("summary");
    EXPECT_EQ(summary.at("count").as_double(),
              static_cast<double>(b.size()));
    EXPECT_EQ(summary.at("min").as_double(), b.min());
    EXPECT_EQ(summary.at("mean").as_double(), b.mean());
    EXPECT_EQ(summary.at("max").as_double(), b.max());
    EXPECT_EQ(summary.at("last").as_double(), b.back());
  }
}

TEST(RecorderJson, MismatchedSeriesLengthsThrow) {
  const Json bad = Json::parse(
      R"({"series":{"x":{"t":[1,2],"v":[1]}}})");
  EXPECT_THROW((void)telemetry::Recorder::from_json(bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace greennfv
