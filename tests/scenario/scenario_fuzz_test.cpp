#include <gtest/gtest.h>

#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/string_util.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario_spec.hpp"

/// Seeded mutation test of the scenario text surface. Every mutated input
/// must either apply and validate, or throw std::invalid_argument — never
/// another exception type, a crash, or UB (the suite runs under ASan/UBSan
/// in scripts/ci.sh). An input that validates must also serialize to text
/// that replays to the same text.

namespace greennfv::scenario {
namespace {

// Values chosen to hit each parser edge: signs, overflow at every integer
// width, non-finite and subnormal doubles, junk, empty, and flow/chain
// texts with bad fields.
const std::vector<std::string> kNastyValues = {
    "", "nan", "NaN", "inf", "-inf", "1e400", "-1", "-0", "0", "1", "+1",
    "0x10", "1e-320", "2147483647", "2147483648", "-2147483649",
    "4294967297", "9223372036854775808", "18446744073709551615",
    "18446744073709551616", "99999999999999999999", "1.5", "0.5", "abc",
    "1e6", "1e12", "=", "udp:cbr:512:nan:0", "tcp:mmpp:-5:1e6:0",
    "udp:cbr:1e20:1e6:0", "udp:cbr:512:1e6:1e20", "udp:onoff:64:1:0:nan:inf",
    "udp:cbr:512:1e6:0", "tcp:poisson:1518:2e5:1:2:0.5", "firewall+nat",
    "firewall++", "warp_drive", "+", "fat-tree", "consolidate", "maxt",
    "mine", "flash-crowd", "energy-bestfit", "widest"};

const std::vector<std::string> kFamilyKeys = {
    "chain0", "chain1", "chain2", "chain7", "chain99999999999999999999",
    "chain18446744073709551616", "flow0", "flow1", "flow3",
    "flow99999999999999999999", "chains", "flows"};

std::vector<std::string> corpus() {
  std::vector<std::string> texts;
  for (const std::string& name : preset_names())
    texts.push_back(preset(name).to_text());
  return texts;
}

std::string mutate(const std::string& text, std::mt19937_64& rng) {
  std::vector<std::string> lines = split(text, '\n');
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto& keys = ScenarioSpec::known_keys();
  const int edits = 1 + static_cast<int>(pick(4));
  for (int e = 0; e < edits; ++e) {
    std::string& line = lines[pick(lines.size())];
    const std::size_t eq = line.find('=');
    switch (pick(6)) {
      case 0:  // a known key gets a nasty value
        line = keys[pick(keys.size())] + "=" +
               kNastyValues[pick(kNastyValues.size())];
        break;
      case 1:  // this line's value becomes a nasty one
        if (eq != std::string::npos)
          line = line.substr(0, eq + 1) +
                 kNastyValues[pick(kNastyValues.size())];
        break;
      case 2:  // an indexed-family entry appears
        lines.push_back(kFamilyKeys[pick(kFamilyKeys.size())] + "=" +
                        kNastyValues[pick(kNastyValues.size())]);
        break;
      case 3:  // one byte flips to a printable character
        if (!line.empty())
          line[pick(line.size())] = static_cast<char>(' ' + pick(95));
        break;
      case 4:  // the line loses its tail
        line.resize(pick(line.size() + 1));
        break;
      default:  // the line disappears
        line.clear();
        break;
    }
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

TEST(ScenarioFuzz, MutatedScenarioTextParsesOrThrowsInvalidArgument) {
  const std::vector<std::string> texts = corpus();
  std::mt19937_64 rng(20231112);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string input = mutate(texts[i % texts.size()], rng);
    try {
      ScenarioSpec spec;
      spec.apply(Config::from_string(input));
      spec.validate();
      ++accepted;
      const std::string text = spec.to_text();
      ScenarioSpec replayed;
      replayed.apply(Config::from_string(text));
      EXPECT_EQ(replayed.to_text(), text) << "input:\n" << input;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what() << " on input:\n" << input;
    }
  }
  // Both outcomes must actually occur, or the mutations are too timid
  // (or too destructive) to test anything.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace greennfv::scenario
