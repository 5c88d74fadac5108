#include "common/config.hpp"

#include <gtest/gtest.h>

namespace greennfv {
namespace {

TEST(Config, ParsesArgs) {
  const char* argv[] = {"prog", "episodes=100", "seed=7", "verbose"};
  const Config c = Config::from_args(4, argv);
  EXPECT_EQ(c.get_int("episodes", 0), 100);
  EXPECT_EQ(c.get_int("seed", 0), 7);
  EXPECT_TRUE(c.get_bool("verbose", false));
  EXPECT_FALSE(c.has("missing"));
}

TEST(Config, ParsesString) {
  const Config c = Config::from_string("a=1.5, b=x\tc=true\nd=0");
  EXPECT_DOUBLE_EQ(c.get_double("a", 0.0), 1.5);
  EXPECT_EQ(c.get_string("b", ""), "x");
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
}

TEST(Config, FallbacksApply) {
  const Config c = Config::from_string("");
  EXPECT_EQ(c.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(c.get_double("x", 2.5), 2.5);
  EXPECT_EQ(c.get_string("s", "dflt"), "dflt");
  EXPECT_TRUE(c.get_bool("b", true));
}

TEST(Config, LaterKeysOverride) {
  const Config c = Config::from_string("k=1 k=2");
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(Config, ThrowsOnMalformedNumbers) {
  const Config c = Config::from_string("n=abc x=1.2.3 b=maybe");
  EXPECT_THROW((void)c.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)c.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW((void)c.get_bool("b", false), std::invalid_argument);
}

TEST(Config, GetIntRejectsValuesOutside64Bits) {
  const Config c = Config::from_string(
      "big=9223372036854775808 small=-9223372036854775809"
      " max=9223372036854775807");
  EXPECT_THROW((void)c.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW((void)c.get_int("small", 0), std::invalid_argument);
  EXPECT_EQ(c.get_int("max", 0), 9223372036854775807LL);
}

TEST(Config, GetInt32RejectsValuesOutsideIntInsteadOfWrapping) {
  // jobs=4294967298 used to read as 2, and 2147483648 as INT_MIN.
  const Config c = Config::from_string(
      "wrap=4294967298 over=2147483648 under=-2147483649 huge=1e3"
      " max=2147483647 min=-2147483648 one=1 zero=0");
  for (const char* key : {"wrap", "over", "under", "huge"})
    EXPECT_THROW((void)c.get_int32(key, 1), std::invalid_argument) << key;
  EXPECT_EQ(c.get_int32("max", 0), 2147483647);
  EXPECT_EQ(c.get_int32("min", 0), -2147483647 - 1);
  EXPECT_EQ(c.get_int32("one", 0), 1);
  EXPECT_EQ(c.get_int32("zero", 1), 0);
  EXPECT_EQ(c.get_int32("missing", 7), 7);
}

TEST(Config, CheckKnownAcceptsListedKeysAndPrefixes) {
  const Config c = Config::from_string("seed=7 flow0=udp flow12=tcp");
  EXPECT_NO_THROW(c.check_known({"seed"}, {"flow"}));
}

TEST(Config, CheckKnownThrowsNamingEveryUnknownKey) {
  const Config c = Config::from_string("sede=7 epizodes=3 windows=4");
  try {
    c.check_known({"seed", "episodes", "windows"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sede"), std::string::npos);
    EXPECT_NE(what.find("epizodes"), std::string::npos);
    EXPECT_EQ(what.find("windows"), std::string::npos);
  }
}

TEST(Config, CheckKnownPrefixRequiresSuffix) {
  // A bare prefix is not a key — "flow" alone is still a typo.
  const Config c = Config::from_string("flow=1");
  EXPECT_THROW(c.check_known({}, {"flow"}), std::invalid_argument);
}

TEST(Config, CheckKnownPrefixSuffixMustBeAnIndex) {
  // Prefixes name indexed families; a non-numeric suffix is a typo that
  // would otherwise be silently ignored ("flowz", "flow_rate").
  EXPECT_THROW(Config::from_string("flowz=3").check_known({}, {"flow"}),
               std::invalid_argument);
  EXPECT_THROW(
      Config::from_string("flow_rate=3").check_known({}, {"flow"}),
      std::invalid_argument);
  EXPECT_NO_THROW(
      Config::from_string("flow12=x").check_known({}, {"flow"}));
}

TEST(Config, WhitespaceTrimmed) {
  // Spaces separate tokens, so values must hug their '='; surrounding
  // whitespace and tabs around whole tokens are stripped.
  const Config c = Config::from_string(" \t key=value \n");
  EXPECT_EQ(c.get_string("key", ""), "value");
}

}  // namespace
}  // namespace greennfv
