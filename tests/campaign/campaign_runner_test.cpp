#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "campaign/presets.hpp"
#include "campaign/runner.hpp"
#include "common/fs_util.hpp"
#include "core/nf_controller.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"

/// CampaignRunner contract — the acceptance criteria of the campaign
/// subsystem: a parallel (--jobs 8) sweep is bit-identical to the serial
/// one; a resumed campaign skips completed runs and reproduces identical
/// aggregates (doubles round-trip through the artifacts exactly); and a
/// Fig. 9-equivalent one-cell campaign reproduces the direct
/// core::evaluate_scheduler numbers for the base seed.

namespace greennfv::campaign {
namespace {

/// Small untrained-roster sweep: 2 cells x 2 seeds over ci-smoke.
CampaignSpec tiny_campaign() {
  CampaignSpec spec;
  spec.name = "runner-test";
  spec.scenarios = {"ci-smoke"};
  spec.models = "baseline,ee-pstate";
  spec.seeds = {1, 2};
  Config overrides;
  overrides.set("sweep.offered_gbps", "6,12");
  spec.apply(overrides);
  return spec;
}

void expect_reports_bit_identical(const CampaignReport& a,
                                  const CampaignReport& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    const RunResult& ra = a.runs[r];
    const RunResult& rb = b.runs[r];
    SCOPED_TRACE(ra.run_id);
    EXPECT_EQ(ra.run_id, rb.run_id);
    ASSERT_EQ(ra.report.models.size(), rb.report.models.size());
    for (std::size_t m = 0; m < ra.report.models.size(); ++m) {
      const core::EvalResult& ea = ra.report.models[m].result;
      const core::EvalResult& eb = rb.report.models[m].result;
      EXPECT_EQ(ea.scheduler, eb.scheduler);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(ea.mean_gbps, eb.mean_gbps);
      EXPECT_EQ(ea.mean_energy_j, eb.mean_energy_j);
      EXPECT_EQ(ea.mean_power_w, eb.mean_power_w);
      EXPECT_EQ(ea.mean_efficiency, eb.mean_efficiency);
      EXPECT_EQ(ea.sla_satisfaction, eb.sla_satisfaction);
      EXPECT_EQ(ea.drop_fraction, eb.drop_fraction);
    }
    // Telemetry series too: same names, same samples.
    const auto names_a = ra.report.series.series_names();
    const auto names_b = rb.report.series.series_names();
    ASSERT_EQ(names_a, names_b);
    for (const std::string& name : names_a) {
      const TimeSeries& sa = ra.report.series.series(name);
      const TimeSeries& sb = rb.report.series.series(name);
      ASSERT_EQ(sa.size(), sb.size()) << name;
      for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa.times()[i], sb.times()[i]) << name;
        EXPECT_EQ(sa.values()[i], sb.values()[i]) << name;
      }
    }
  }
  // And the aggregates.
  ASSERT_EQ(a.summary.cells.size(), b.summary.cells.size());
  for (std::size_t c = 0; c < a.summary.cells.size(); ++c) {
    EXPECT_EQ(a.summary.cells[c].cell_id, b.summary.cells[c].cell_id);
    EXPECT_EQ(a.summary.cells[c].gbps.mean, b.summary.cells[c].gbps.mean);
    EXPECT_EQ(a.summary.cells[c].gbps.stddev,
              b.summary.cells[c].gbps.stddev);
    EXPECT_EQ(a.summary.cells[c].gbps.ci95, b.summary.cells[c].gbps.ci95);
    EXPECT_EQ(a.summary.cells[c].energy_j.mean,
              b.summary.cells[c].energy_j.mean);
    EXPECT_EQ(a.summary.cells[c].on_pareto, b.summary.cells[c].on_pareto);
  }
  EXPECT_EQ(a.summary.pareto, b.summary.pareto);
}

TEST(CampaignRunner, ParallelJobsAreBitIdenticalToSerial) {
  CampaignRunner serial(tiny_campaign());
  CampaignRunner parallel(tiny_campaign());
  const CampaignReport a = serial.run(/*jobs=*/1);
  const CampaignReport b = parallel.run(/*jobs=*/8);
  EXPECT_EQ(a.executed, 4);
  EXPECT_EQ(b.executed, 4);
  expect_reports_bit_identical(a, b);
}

TEST(CampaignRunner, ResumeSkipsCompletedRunsAndReproducesAggregates) {
  const std::string root =
      testing::TempDir() + "/campaign_resume_test";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root, "runner-test");

  CampaignRunner fresh(tiny_campaign(), &store);
  const CampaignReport first = fresh.run(/*jobs=*/2, /*resume=*/true);
  EXPECT_EQ(first.executed, 4);
  EXPECT_EQ(first.resumed, 0);
  EXPECT_TRUE(file_exists(store.manifest_path()));

  // Simulate a crash that lost one run: delete its artifact.
  const std::string lost = fresh.matrix()[2].run_id;
  ASSERT_TRUE(std::filesystem::remove(store.run_path(lost)));

  CampaignRunner resumed(tiny_campaign(), &store);
  const CampaignReport second = resumed.run(/*jobs=*/2, /*resume=*/true);
  EXPECT_EQ(second.executed, 1);
  EXPECT_EQ(second.resumed, 3);
  for (const RunResult& run : second.runs)
    EXPECT_EQ(run.from_cache, run.run_id != lost);
  // The resumed campaign reproduces the fresh aggregates bit for bit —
  // the doubles survived the JSON artifacts exactly.
  expect_reports_bit_identical(first, second);

  // A third run resumes everything.
  CampaignRunner all_cached(tiny_campaign(), &store);
  const CampaignReport third = all_cached.run(/*jobs=*/2, /*resume=*/true);
  EXPECT_EQ(third.executed, 0);
  EXPECT_EQ(third.resumed, 4);
  expect_reports_bit_identical(first, third);

  std::filesystem::remove_all(root);
}

TEST(CampaignRunner, CorruptOrForeignArtifactsAreReExecuted) {
  const std::string root =
      testing::TempDir() + "/campaign_corrupt_test";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root, "runner-test");

  CampaignRunner runner(tiny_campaign(), &store);
  // Truncated JSON and a complete-but-mismatched artifact both mean
  // "re-run".
  write_file_atomic(store.run_path(runner.matrix()[0].run_id),
                    "{\"complete\": tru");
  Json foreign = Json::object();
  foreign.set("complete", true);
  write_file_atomic(store.run_path(runner.matrix()[1].run_id),
                    foreign.dump());
  const CampaignReport report = runner.run(/*jobs=*/1, /*resume=*/true);
  EXPECT_EQ(report.executed, 4);
  EXPECT_EQ(report.resumed, 0);
  std::filesystem::remove_all(root);
}

TEST(CampaignRunner, TruncatedRealArtifactIsReExecutedNotTrusted) {
  // Not a synthetic fragment: a genuine completed artifact cut mid-byte
  // (the shape a crash mid-write or a full disk leaves behind). The store
  // must warn, discard, and re-execute — never feed a half-parsed run
  // into the aggregate.
  const std::string root = testing::TempDir() + "/campaign_truncated_test";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root, "runner-test");

  CampaignRunner fresh(tiny_campaign(), &store);
  const CampaignReport first = fresh.run(/*jobs=*/2, /*resume=*/true);
  EXPECT_EQ(first.executed, 4);

  const std::string victim = fresh.matrix()[1].run_id;
  const std::string path = store.run_path(victim);
  const std::string bytes = read_file(path);
  write_file_atomic(path, bytes.substr(0, bytes.size() / 2));

  CampaignRunner resumed(tiny_campaign(), &store);
  const CampaignReport second = resumed.run(/*jobs=*/2, /*resume=*/true);
  EXPECT_EQ(second.executed, 1);
  EXPECT_EQ(second.resumed, 3);
  for (const RunResult& run : second.runs)
    EXPECT_EQ(run.from_cache, run.run_id != victim);
  // The re-executed run restores the exact fresh numbers.
  expect_reports_bit_identical(first, second);
  std::filesystem::remove_all(root);
}

TEST(CampaignRunner, WorkerExceptionBecomesFailureRecordNotAbort) {
  // One deliberately poisoned cell: the roster provider throws for the
  // 12 Gbps x seed 2 run, exactly where a bad scenario would fail inside
  // execute(). The campaign must finish every other cell, record the
  // failure with its run id, keep it out of the aggregate and the
  // artifact store, and mark it in the manifest.
  const std::string root = testing::TempDir() + "/campaign_failure_test";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root, "runner-test");
  CampaignRunner runner(tiny_campaign(), &store);
  runner.set_roster_provider([](const scenario::ScenarioSpec& s) {
    if (s.total_offered_gbps == 12.0 && s.seed == 2)
      throw std::invalid_argument("injected cell failure");
    return scenario::filter_roster(scenario::default_roster(s),
                                   "baseline,ee-pstate");
  });
  const CampaignReport report = runner.run(/*jobs=*/2);
  EXPECT_EQ(report.executed, 4);
  EXPECT_EQ(report.failed, 1);

  std::string failed_id;
  for (const RunResult& run : report.runs) {
    if (!run.failed) {
      EXPECT_FALSE(run.report.models.empty()) << run.run_id;
      continue;
    }
    failed_id = run.run_id;
    EXPECT_FALSE(run.run_id.empty());
    EXPECT_EQ(run.seed, 2u);
    EXPECT_NE(run.error.find("injected cell failure"), std::string::npos);
    EXPECT_TRUE(run.report.models.empty());
    // No artifact: absence is what makes a later --resume re-run it.
    EXPECT_FALSE(file_exists(store.run_path(run.run_id)));
  }
  ASSERT_FALSE(failed_id.empty());

  // The failed cell's aggregate averages only the surviving seed.
  std::size_t one_seed_cells = 0;
  for (const auto& cell : report.summary.cells)
    if (cell.gbps.n == 1) ++one_seed_cells;
  EXPECT_EQ(one_seed_cells, 2u);  // both models of the wounded cell

  // The manifest marks exactly the failed run.
  const Json manifest = Json::parse(read_file(store.manifest_path()));
  int marked = 0;
  for (const Json& entry : manifest.at("runs").elements()) {
    if (!entry.has("failed")) continue;
    ++marked;
    EXPECT_EQ(entry.at("run_id").as_string(), failed_id);
    EXPECT_NE(entry.at("error").as_string().find("injected cell failure"),
              std::string::npos);
  }
  EXPECT_EQ(marked, 1);

  // With the poison removed, --resume re-runs only the failed cell and
  // the campaign is whole again.
  CampaignRunner healed(tiny_campaign(), &store);
  const CampaignReport second = healed.run(/*jobs=*/2, /*resume=*/true);
  EXPECT_EQ(second.executed, 1);
  EXPECT_EQ(second.resumed, 3);
  EXPECT_EQ(second.failed, 0);
  std::filesystem::remove_all(root);
}

TEST(CampaignRunner, ResumeRejectsArtifactsFromADifferentConfiguration) {
  const std::string root = testing::TempDir() + "/campaign_config_test";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root, "runner-test");

  CampaignRunner original(tiny_campaign(), &store);
  (void)original.run(/*jobs=*/2);

  // A stale models= filter means re-run, not a mixed aggregate: the
  // artifacts' scenario echo matches, so the roster comparison is what
  // rejects them.
  CampaignSpec more_models = tiny_campaign();
  more_models.models = "baseline,heuristics,ee-pstate";
  CampaignRunner remodel(more_models, &store);
  const CampaignReport remodel_report =
      remodel.run(/*jobs=*/2, /*resume=*/true);
  EXPECT_EQ(remodel_report.executed, 4);
  EXPECT_EQ(remodel_report.resumed, 0);

  // Same run ids and roster, but a changed base override: only the
  // resolved-scenario echo can tell the artifacts apart.
  CampaignSpec changed = tiny_campaign();
  changed.models = more_models.models;
  Config overrides;
  overrides.set("eval_windows", "2");
  changed.apply(overrides);
  CampaignRunner runner(changed, &store);
  const CampaignReport report = runner.run(/*jobs=*/2, /*resume=*/true);
  EXPECT_EQ(report.executed, 4);
  EXPECT_EQ(report.resumed, 0);

  // And an untouched re-run still resumes everything.
  CampaignRunner same(changed, &store);
  const CampaignReport cached = same.run(/*jobs=*/2, /*resume=*/true);
  EXPECT_EQ(cached.executed, 0);
  EXPECT_EQ(cached.resumed, 4);
  std::filesystem::remove_all(root);
}

TEST(CampaignRunner, FreshRunIgnoresExistingArtifacts) {
  const std::string root = testing::TempDir() + "/campaign_fresh_test";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root, "runner-test");
  CampaignRunner runner(tiny_campaign(), &store);
  (void)runner.run(/*jobs=*/2, /*resume=*/true);
  const CampaignReport again = runner.run(/*jobs=*/2, /*resume=*/false);
  EXPECT_EQ(again.executed, 4);
  EXPECT_EQ(again.resumed, 0);
  std::filesystem::remove_all(root);
}

/// Acceptance: a Fig. 9-equivalent campaign (one cell, base scenario,
/// base seed) reproduces the direct core::evaluate_scheduler numbers — the
/// campaign path adds orchestration, never different physics.
TEST(CampaignRunner, Fig9EquivalentCampaignMatchesEvaluateScheduler) {
  scenario::ScenarioSpec spec = scenario::preset("paper-default");
  spec.eval_windows = 3;
  spec.episodes = 2;
  spec.q_episodes = 2;
  spec.candidates = 1;
  spec.steps_per_episode = 2;

  // Direct single-run path (what the golden-equivalence test pins to the
  // pre-scenario wiring).
  std::vector<core::EvalResult> expected;
  for (const scenario::SchedulerFactory& entry : scenario::filter_roster(
           scenario::default_roster(spec), "baseline,heuristics,ee-pstate")) {
    const auto scheduler = entry.make(spec.env_config(), spec.seed);
    expected.push_back(core::evaluate_scheduler(
        spec.env_config(), *scheduler, spec.eval_windows,
        scenario::node_eval_seed(spec, 0), entry.warmup));
    expected.back().scheduler = entry.name;
  }

  // The same scenario as a one-cell campaign through the parallel runner.
  CampaignSpec camp;
  camp.name = "fig9-equivalence";
  camp.base = spec;
  camp.models = "baseline,heuristics,ee-pstate";
  CampaignRunner runner(camp);
  const CampaignReport report = runner.run(/*jobs=*/4);

  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_EQ(report.runs[0].seed, spec.seed);
  const scenario::EvalReport& actual = report.runs[0].report;
  ASSERT_EQ(actual.models.size(), expected.size());
  for (std::size_t m = 0; m < expected.size(); ++m) {
    const core::EvalResult& want = expected[m];
    const core::EvalResult& got = actual.models[m].result;
    SCOPED_TRACE(want.scheduler);
    EXPECT_EQ(got.scheduler, want.scheduler);
    EXPECT_EQ(got.mean_gbps, want.mean_gbps);
    EXPECT_EQ(got.mean_energy_j, want.mean_energy_j);
    EXPECT_EQ(got.mean_power_w, want.mean_power_w);
    EXPECT_EQ(got.mean_efficiency, want.mean_efficiency);
    EXPECT_EQ(got.sla_satisfaction, want.sla_satisfaction);
    EXPECT_EQ(got.drop_fraction, want.drop_fraction);
  }
  // And the per-cell aggregate mean over one seed IS the single-run value.
  EXPECT_EQ(report.summary.cells[0].gbps.mean, expected[0].mean_gbps);
}

TEST(CampaignRunner, ManifestListsEveryRunAndParses) {
  const std::string root = testing::TempDir() + "/campaign_manifest_test";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root, "runner-test");
  CampaignRunner runner(tiny_campaign(), &store);
  const CampaignReport report = runner.run(/*jobs=*/2);

  const Json manifest = Json::parse(read_file(store.manifest_path()));
  EXPECT_EQ(manifest.at("campaign").as_string(), "runner-test");
  EXPECT_EQ(manifest.at("matrix_size").as_double(), 4.0);
  ASSERT_EQ(manifest.at("runs").size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(manifest.at("runs").at(i).at("run_id").as_string(),
              runner.matrix()[i].run_id);
  }
  // The spec text round-trips back into an equivalent campaign.
  CampaignSpec from_manifest;
  from_manifest.apply(
      config_from_lines(manifest.at("spec").as_string()));
  EXPECT_EQ(from_manifest.expand().size(), runner.matrix().size());
  // Aggregates in the manifest are finite.
  for (const Json& cell : manifest.at("summary").at("cells").elements()) {
    EXPECT_TRUE(std::isfinite(cell.at("gbps").at("mean").as_double()));
    EXPECT_TRUE(std::isfinite(cell.at("gbps").at("ci95").as_double()));
  }
  EXPECT_EQ(report.summary.cells.size(),
            manifest.at("summary").at("cells").size());
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace greennfv::campaign
