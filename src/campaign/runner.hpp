#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/aggregator.hpp"
#include "campaign/artifact_store.hpp"
#include "campaign/campaign_spec.hpp"
#include "scenario/experiment.hpp"

/// \file runner.hpp
/// Executes a campaign's run matrix: each matrix entry is an independent
/// (scenario, roster, seed) evaluation through FleetOrchestrator, so
/// ThreadPool::parallel_for can run them in any interleaving — results
/// land in index-addressed slots and every run derives its randomness from
/// its own RunSpec seed, which is what makes `--jobs N` bit-identical to
/// `--jobs 1`. With an ArtifactStore attached, each finished run is
/// persisted immediately and a resumed campaign loads completed runs
/// instead of re-executing them.

namespace greennfv::campaign {

/// Wall-clock accounting for one matrix cell, filled only for runs
/// executed this invocation. Timing lives in the in-memory report — never
/// in run artifacts or the manifest — so campaign outputs stay
/// byte-identical whether or not anyone looks at the clock.
struct RunTiming {
  std::size_t index = 0;
  std::string run_id;
  std::string cell_id;
  bool executed = false;
  int worker = -1;           ///< seat in the range (-1: inline, jobs<=1)
  double queue_wait_s = 0.0;  ///< dispatch-of-parallel-pass to run start
  double wall_s = 0.0;        ///< execute() + artifact write
};

struct CampaignReport {
  /// Matrix order (RunSpec::index), independent of execution order.
  std::vector<RunResult> runs;
  CampaignSummary summary;
  int executed = 0;  ///< runs evaluated this invocation
  int resumed = 0;   ///< runs loaded from artifacts
  int failed = 0;    ///< runs whose execution threw (see RunResult::failed)
  /// Matrix order, parallel to `runs`.
  std::vector<RunTiming> timings;
};

/// Aligned per-cell wall-clock table (run, worker, queue wait, wall) plus
/// a critical-path footer — the `--timing` output of run_campaign.
[[nodiscard]] std::string timing_table(const CampaignReport& report);

class CampaignRunner {
 public:
  /// Builds one run's scheduler roster. The default provider applies the
  /// campaign's `models` filter to scenario::default_roster (factories
  /// are lazy — unselected trained models never train).
  using RosterProvider =
      std::function<std::vector<scenario::SchedulerFactory>(
          const scenario::ScenarioSpec&)>;

  /// Expands the matrix up front (a bad cell throws here, before anything
  /// runs). `store` may be null: no artifacts, no resume.
  CampaignRunner(CampaignSpec spec, const ArtifactStore* store = nullptr);

  /// Replaces the roster builder — how a bench injects a pre-trained
  /// policy (Fig. 11) while still executing through the campaign path.
  void set_roster_provider(RosterProvider provider);

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  [[nodiscard]] const std::vector<RunSpec>& matrix() const {
    return matrix_;
  }

  /// Executes every run not already completed (when `resume` and a store
  /// is attached) across `jobs` workers, persists fresh runs, aggregates,
  /// and — with a store — writes the campaign manifest.
  CampaignReport run(int jobs, bool resume = true);

  /// One run, independent of any pool — the unit the matrix parallelizes.
  [[nodiscard]] static RunResult execute(const RunSpec& run,
                                         const RosterProvider& roster);

  /// The manifest document for a finished report (exposed for tests).
  [[nodiscard]] Json manifest(const CampaignReport& report) const;

 private:
  CampaignSpec spec_;
  const ArtifactStore* store_;
  std::vector<RunSpec> matrix_;
  RosterProvider roster_;
};

}  // namespace greennfv::campaign
