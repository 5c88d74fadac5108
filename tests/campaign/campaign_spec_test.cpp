#include <gtest/gtest.h>

#include <set>

#include "campaign/campaign_spec.hpp"
#include "campaign/presets.hpp"
#include "scenario/presets.hpp"

/// CampaignSpec contract: apply() sorts the vocabulary into campaign
/// fields, sweep axes, and scenario overrides (typos are hard errors);
/// expand() produces the deterministic matrix (scenarios outer, axes in
/// key order, seeds innermost) with stable filesystem-safe ids; the text
/// form round-trips including comma-separated values.

namespace greennfv::campaign {
namespace {

Config make_config(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  Config config;
  for (const auto& [key, value] : entries) config.set(key, value);
  return config;
}

TEST(CampaignSpec, ApplySortsKeysIntoFieldsAxesAndOverrides) {
  CampaignSpec spec;
  spec.apply(make_config({{"name", "my-sweep"},
                          {"scenarios", "ci-smoke,flash-crowd"},
                          {"models", "baseline,ee-pstate"},
                          {"seeds", "7,8,9"},
                          {"sweep.offered_gbps", "5,10"},
                          {"episodes", "12"}}));
  EXPECT_EQ(spec.name, "my-sweep");
  EXPECT_EQ(spec.scenarios,
            (std::vector<std::string>{"ci-smoke", "flash-crowd"}));
  EXPECT_EQ(spec.models, "baseline,ee-pstate");
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{7, 8, 9}));
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].key, "offered_gbps");
  EXPECT_EQ(spec.axes[0].values, (std::vector<std::string>{"5", "10"}));
  EXPECT_EQ(spec.overrides.get_string("episodes", ""), "12");
}

TEST(CampaignSpec, UnknownKeysAndBadAxesAreHardErrors) {
  CampaignSpec spec;
  EXPECT_THROW(spec.apply(make_config({{"episodez", "12"}})),
               std::invalid_argument);
  EXPECT_THROW(spec.apply(make_config({{"sweep.not_a_key", "1,2"}})),
               std::invalid_argument);
  EXPECT_THROW(spec.apply(make_config({{"sweep.scenario", "a,b"}})),
               std::invalid_argument);
  EXPECT_THROW(spec.apply(make_config({{"seeds", "1,x"}})),
               std::invalid_argument);
}

TEST(CampaignSpec, ExpandOrdersScenariosAxesSeedsDeterministically) {
  CampaignSpec spec;
  spec.apply(make_config({{"scenarios", "ci-smoke,flash-crowd"},
                          {"seeds", "1,2"},
                          // Arrival order reversed vs key order on purpose.
                          {"sweep.window_s", "2,4"},
                          {"sweep.offered_gbps", "5,10"}}));
  const std::vector<RunSpec> matrix = spec.expand();
  // 2 scenarios x 2 offered x 2 window x 2 seeds.
  ASSERT_EQ(matrix.size(), 16u);

  // Axes iterate in key order: offered_gbps before window_s.
  EXPECT_EQ(matrix[0].run_id,
            "ci-smoke__offered_gbps-5__window_s-2__s1");
  EXPECT_EQ(matrix[1].run_id,
            "ci-smoke__offered_gbps-5__window_s-2__s2");
  EXPECT_EQ(matrix[2].run_id,
            "ci-smoke__offered_gbps-5__window_s-4__s1");
  EXPECT_EQ(matrix[4].run_id,
            "ci-smoke__offered_gbps-10__window_s-2__s1");
  EXPECT_EQ(matrix[8].run_id,
            "flash-crowd__offered_gbps-5__window_s-2__s1");

  std::set<std::string> ids;
  for (const RunSpec& run : matrix) {
    EXPECT_EQ(run.index, ids.size());
    EXPECT_TRUE(ids.insert(run.run_id).second) << "duplicate " << run.run_id;
    EXPECT_EQ(run.cell_id + "__s" + std::to_string(run.seed), run.run_id);
    // The resolved scenario actually received the assignment and seed.
    EXPECT_EQ(run.scenario.seed, run.seed);
    const double offered =
        run.assignments[0].second == "5" ? 5.0 : 10.0;
    EXPECT_DOUBLE_EQ(run.scenario.total_offered_gbps, offered);
  }
  // Expansion is pure: a second call reproduces the same matrix.
  const std::vector<RunSpec> again = spec.expand();
  ASSERT_EQ(again.size(), matrix.size());
  for (std::size_t i = 0; i < matrix.size(); ++i)
    EXPECT_EQ(again[i].run_id, matrix[i].run_id);
}

TEST(CampaignSpec, AutoSeedsDeriveFromTheCellBaseSeedViaRng) {
  CampaignSpec spec;
  spec.scenarios = {"ci-smoke"};
  spec.auto_seeds = 3;
  const std::vector<RunSpec> matrix = spec.expand();
  ASSERT_EQ(matrix.size(), 3u);
  // First seed IS the scenario's base seed (single-run equivalence).
  EXPECT_EQ(matrix[0].seed, scenario::preset("ci-smoke").seed);
  EXPECT_NE(matrix[1].seed, matrix[0].seed);
  EXPECT_NE(matrix[2].seed, matrix[1].seed);
  // Derivation is deterministic.
  const std::vector<RunSpec> again = spec.expand();
  for (std::size_t i = 0; i < matrix.size(); ++i)
    EXPECT_EQ(again[i].seed, matrix[i].seed);
}

TEST(CampaignSpec, ExplicitBaseSpecBypassesThePresetRegistry) {
  scenario::ScenarioSpec base = scenario::preset("ci-smoke");
  base.name = "hand-built";
  base.seed = 123;
  CampaignSpec spec;
  spec.base = base;
  const std::vector<RunSpec> matrix = spec.expand();
  ASSERT_EQ(matrix.size(), 1u);
  EXPECT_EQ(matrix[0].run_id, "hand-built__s123");
  EXPECT_EQ(matrix[0].scenario.num_chains, base.num_chains);
}

TEST(CampaignSpec, TextFormRoundTripsIncludingCommaValues) {
  CampaignSpec spec;
  spec.apply(make_config({{"name", "rt"},
                          {"scenarios", "ci-smoke,flash-crowd"},
                          {"models", "baseline,heuristics"},
                          {"seeds", "3,5"},
                          {"sweep.sla", "maxt,mine,ee"},
                          {"eval_windows", "4"}}));
  // The file format is line-oriented, so comma-separated values survive
  // (Config::from_string would have split them).
  CampaignSpec back;
  back.apply(config_from_lines(spec.to_text()));
  EXPECT_EQ(back.to_text(), spec.to_text());
  EXPECT_EQ(back.seeds, spec.seeds);
  ASSERT_EQ(back.axes.size(), 1u);
  EXPECT_EQ(back.axes[0].values,
            (std::vector<std::string>{"maxt", "mine", "ee"}));
}

TEST(CampaignSpec, SaveLoadRoundTripsThroughAFile) {
  CampaignSpec spec;
  spec.apply(make_config({{"name", "file-rt"},
                          {"scenarios", "ci-smoke"},
                          {"sweep.offered_gbps", "4,8"},
                          {"seeds", "1,2"}}));
  const std::string path =
      testing::TempDir() + "/campaign_spec_test.campaign";
  spec.save(path);
  const CampaignSpec loaded = CampaignSpec::load(path);
  EXPECT_EQ(loaded.to_text(), spec.to_text());
  EXPECT_EQ(loaded.expand().size(), 4u);
}

TEST(CampaignSpec, ValidateRejectsNonsense) {
  CampaignSpec spec;
  spec.name = "***";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.name = "ok";
  spec.auto_seeds = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.auto_seeds = 1;
  spec.scenarios.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(CampaignSpec, ExpandRejectsDuplicateRunIds) {
  CampaignSpec duplicate_seed;
  duplicate_seed.scenarios = {"ci-smoke"};
  duplicate_seed.seeds = {1, 1};
  EXPECT_THROW((void)duplicate_seed.expand(), std::invalid_argument);

  CampaignSpec duplicate_axis_value;
  duplicate_axis_value.scenarios = {"ci-smoke"};
  duplicate_axis_value.axes = {{"sla", {"ee", "ee"}}};
  EXPECT_THROW((void)duplicate_axis_value.expand(), std::invalid_argument);
}

TEST(CampaignSpec, ExpandValidatesEveryCellUpFront) {
  CampaignSpec spec;
  spec.scenarios = {"ci-smoke"};
  spec.apply(make_config({{"sweep.offered_gbps", "8,-1"}}));
  EXPECT_THROW((void)spec.expand(), std::invalid_argument);
}

TEST(CampaignSpec, ExpandRejectsUnknownTopologyPresets) {
  // A topology axis with a mistyped preset dies at expansion, before any
  // cell executes — cell.validate() name-checks even disabled specs.
  CampaignSpec spec;
  spec.scenarios = {"fleet-smoke"};
  spec.apply(make_config(
      {{"topology.enabled", "1"},
       {"sweep.topology.preset", "leaf-spine,leaf-spin"}}));
  EXPECT_THROW((void)spec.expand(), std::invalid_argument);
}

TEST(CampaignSpec, SeedsRejectSignsAndOverflow) {
  for (const char* seeds :
       {"-1", "1,-2", "+3", "18446744073709551616", "1e3", " "}) {
    CampaignSpec spec;
    EXPECT_THROW(spec.apply(make_config({{"seeds", seeds}})),
                 std::invalid_argument)
        << seeds;
  }
  CampaignSpec spec;
  spec.apply(make_config({{"seeds", "0,18446744073709551615"}}));
  EXPECT_EQ(spec.seeds,
            (std::vector<std::uint64_t>{0, 18446744073709551615ull}));
}

TEST(CampaignSpec, AutoSeedsRejectsValuesOutsideInt) {
  for (const char* count : {"4294967297", "-4294967295"}) {
    CampaignSpec spec;
    EXPECT_THROW(spec.apply(make_config({{"auto_seeds", count}})),
                 std::invalid_argument)
        << count;
  }
  CampaignSpec spec;
  spec.apply(make_config({{"auto_seeds", "3"}}));
  EXPECT_EQ(spec.auto_seeds, 3);
}

TEST(CampaignPresets, EveryExpandedCellValidatesAndReplaysItsEcho) {
  // The scenario echo stored with each run must replay to the same spec,
  // including derived seeds above 2^63 (fig9 at auto_seeds=8 has five).
  std::vector<CampaignSpec> campaigns;
  for (const std::string& name : preset_names())
    campaigns.push_back(preset(name));
  campaigns.push_back(preset("fig9"));
  campaigns.back().auto_seeds = 8;
  int high_seeds = 0;
  for (const CampaignSpec& campaign : campaigns) {
    for (const RunSpec& run : campaign.expand()) {
      EXPECT_NO_THROW(run.scenario.validate()) << run.run_id;
      scenario::ScenarioSpec replayed;
      replayed.apply(Config::from_string(run.scenario.to_text()));
      EXPECT_EQ(replayed.seed, run.seed) << run.run_id;
      EXPECT_EQ(replayed.to_text(), run.scenario.to_text()) << run.run_id;
      high_seeds += run.seed > 9223372036854775807ull ? 1 : 0;
    }
  }
  EXPECT_GT(high_seeds, 0);
}

TEST(CampaignPresets, RegistryResolvesAndRejectsTypos) {
  const std::vector<std::string> names = preset_names();
  ASSERT_GE(names.size(), 4u);
  for (const std::string& name : names) {
    const CampaignSpec spec = preset(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.description.empty());
  }
  EXPECT_THROW((void)preset("fig9-typo"), std::invalid_argument);
  // resolve applies CLI overrides on top of the preset.
  Config config;
  config.set("campaign", "ci-campaign-smoke");
  config.set("models", "baseline");
  const CampaignSpec resolved = resolve(config);
  EXPECT_EQ(resolved.models, "baseline");
  EXPECT_EQ(resolved.name, "ci-campaign-smoke");
}

TEST(CampaignSpec, SanitizeTokenIsFilesystemSafe) {
  EXPECT_EQ(sanitize_token("GreenNFV(MaxT)"), "greennfv_maxt");
  EXPECT_EQ(sanitize_token("offered_gbps-10.5"), "offered_gbps-10.5");
  EXPECT_EQ(sanitize_token("a b/c\\d"), "a_b_c_d");
}

}  // namespace
}  // namespace greennfv::campaign
