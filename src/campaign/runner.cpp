#include "campaign/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "orchestrator/fleet.hpp"
#include "telemetry/trace.hpp"

namespace greennfv::campaign {

CampaignRunner::CampaignRunner(CampaignSpec spec, const ArtifactStore* store)
    : spec_(std::move(spec)), store_(store), matrix_(spec_.expand()) {
  const std::string models = spec_.models;
  roster_ = [models](const scenario::ScenarioSpec& scenario) {
    std::vector<scenario::SchedulerFactory> roster =
        scenario::default_roster(scenario);
    if (!models.empty()) roster = scenario::filter_roster(roster, models);
    return roster;
  };
}

void CampaignRunner::set_roster_provider(RosterProvider provider) {
  roster_ = std::move(provider);
}

RunResult CampaignRunner::execute(const RunSpec& run,
                                  const RosterProvider& roster) {
  RunResult result;
  result.index = run.index;
  result.run_id = run.run_id;
  result.cell_id = run.cell_id;
  result.scenario_name = run.scenario_name;
  result.assignments = run.assignments;
  result.seed = run.seed;
  result.scenario_text = run.scenario.to_text();
  orchestrator::FleetOrchestrator fleet(run.scenario);
  result.report = fleet.run(roster(run.scenario)).report;
  // Null unless telemetry::series::enabled() on a fleet scenario — the
  // sampler armed itself inside the timeline build.
  result.fleet_series = fleet.timeline().series;
  return result;
}

CampaignReport CampaignRunner::run(int jobs, bool resume) {
  CampaignReport report;
  report.runs.resize(matrix_.size());
  report.timings.resize(matrix_.size());
  for (const RunSpec& run : matrix_) {
    RunTiming& timing = report.timings[run.index];
    timing.index = run.index;
    timing.run_id = run.run_id;
    timing.cell_id = run.cell_id;
  }

  // Resume pass: pull completed runs off disk, collect what's left. An
  // artifact only counts when its roster matches what this campaign
  // would run (building the roster is cheap — the factories are lazy);
  // a stale models= filter means re-run, not a mixed aggregate.
  std::vector<std::size_t> todo;
  for (const RunSpec& run : matrix_) {
    if (resume && store_ != nullptr) {
      if (auto cached = store_->load_run(run)) {
        const std::vector<scenario::SchedulerFactory> roster =
            roster_(run.scenario);
        bool roster_matches = roster.size() == cached->report.models.size();
        for (std::size_t m = 0; roster_matches && m < roster.size(); ++m) {
          roster_matches =
              roster[m].name == cached->report.models[m].result.scheduler;
        }
        if (roster_matches) {
          report.runs[run.index] = std::move(*cached);
          ++report.resumed;
          continue;
        }
      }
    }
    todo.push_back(run.index);
  }
  if (report.resumed > 0) {
    std::printf("[campaign] %s: resumed %d/%zu runs from %s\n",
                spec_.name.c_str(), report.resumed, matrix_.size(),
                store_->dir().c_str());
  }

  // Parallel pass: every pending run is independent — per-run seeds, no
  // shared state — so slot-indexed results make any interleaving (and any
  // jobs count) produce identical bytes. The flight recorder rides along
  // read-only: worker spans, per-run trace slices (each run executes
  // synchronously on one worker thread, so a mark/extract pair brackets
  // exactly its own events), and per-cell timing — none of it feeds back
  // into results or artifacts.
  const auto pass_start = std::chrono::steady_clock::now();
  const auto seconds_between = [](auto from, auto to) {
    return std::chrono::duration<double>(to - from).count();
  };
  ThreadPool::parallel_for(
      todo.size(), jobs,
      [this, &report, &todo, &pass_start, &seconds_between](std::size_t i) {
        const RunSpec& run = matrix_[todo[i]];
        const auto run_start = std::chrono::steady_clock::now();
        std::printf("[campaign] run %zu/%zu %s\n", run.index + 1,
                    matrix_.size(), run.run_id.c_str());
        const bool slice =
            store_ != nullptr && telemetry::trace::runtime_enabled();
        telemetry::trace::Mark mark{};
        if (slice) mark = telemetry::trace::mark();
        RunResult result;
        {
          const telemetry::trace::Span span(
              telemetry::trace::intern("campaign/run:" + run.run_id),
              static_cast<std::uint64_t>(run.index));
          // Caught here, inside the range body: parallel_for would
          // rethrow an uncaught exception once every cell had finished,
          // failing the whole campaign, and the inline jobs=1 loop would
          // stop at it. One bad cell becomes a failure record; the rest of
          // the campaign finishes.
          try {
            result = execute(run, roster_);
          } catch (const std::exception& e) {
            result.index = run.index;
            result.run_id = run.run_id;
            result.cell_id = run.cell_id;
            result.scenario_name = run.scenario_name;
            result.assignments = run.assignments;
            result.seed = run.seed;
            result.failed = true;
            result.error = e.what();
            std::printf("[campaign] run %zu/%zu %s FAILED: %s\n",
                        run.index + 1, matrix_.size(), run.run_id.c_str(),
                        e.what());
          }
        }
        if (slice) {
          const int tid = std::max(0, ThreadPool::current_worker());
          store_->save_trace(
              run.run_id,
              telemetry::trace::events_to_json(
                  telemetry::trace::events_since(mark), tid));
        }
        // A failed run writes no artifact: its absence (not a poisoned
        // file) is what makes a later --resume re-run it.
        if (store_ != nullptr && !result.failed) {
          store_->save_run(result);
          // Health-series side artifacts ride along like trace slices:
          // written next to the run, never read back by resume.
          if (result.fleet_series != nullptr) {
            store_->save_series(run.run_id, *result.fleet_series);
          }
        }
        RunTiming& timing = report.timings[run.index];
        timing.executed = true;
        timing.worker = ThreadPool::current_worker();
        timing.queue_wait_s = seconds_between(pass_start, run_start);
        timing.wall_s =
            seconds_between(run_start, std::chrono::steady_clock::now());
        report.runs[run.index] = std::move(result);
      });
  report.executed = static_cast<int>(todo.size());
  for (const RunResult& run : report.runs) {
    if (run.failed) ++report.failed;
  }

  report.summary = aggregate(report.runs);
  if (store_ != nullptr) store_->save_manifest(manifest(report));
  return report;
}

std::string timing_table(const CampaignReport& report) {
  std::vector<std::vector<std::string>> rows;
  double critical_wall_s = 0.0;
  double total_wall_s = 0.0;
  for (const RunTiming& timing : report.timings) {
    if (!timing.executed) continue;
    rows.push_back({timing.run_id, timing.cell_id,
                    timing.worker < 0 ? std::string("inline")
                                      : format("%d", timing.worker),
                    format("%.3f", timing.queue_wait_s),
                    format("%.3f", timing.wall_s)});
    critical_wall_s = std::max(critical_wall_s,
                               timing.queue_wait_s + timing.wall_s);
    total_wall_s += timing.wall_s;
  }
  if (rows.empty()) return "[campaign] timing: no runs executed\n";
  std::string out = render_table(
      {"run", "cell", "worker", "queue_wait_s", "wall_s"}, rows);
  out += format(
      "[campaign] timing: %zu run(s), %.3f s total work, %.3f s critical"
      " path\n",
      rows.size(), total_wall_s, critical_wall_s);
  return out;
}

Json CampaignRunner::manifest(const CampaignReport& report) const {
  Json json = Json::object();
  json.set("campaign", spec_.name);
  json.set("spec", spec_.to_text());
  json.set("matrix_size", static_cast<double>(matrix_.size()));
  Json runs = Json::array();
  for (const RunResult& run : report.runs) {
    Json entry = Json::object();
    entry.set("run_id", run.run_id);
    entry.set("cell_id", run.cell_id);
    entry.set("seed",
              format("%llu", static_cast<unsigned long long>(run.seed)));
    entry.set("resumed", run.from_cache);
    // Only failed cells carry the marker — success manifests keep their
    // exact pre-fault bytes.
    if (run.failed) {
      entry.set("failed", true);
      entry.set("error", run.error);
    }
    runs.push_back(std::move(entry));
  }
  json.set("runs", std::move(runs));
  json.set("summary", report.summary.to_json());
  return json;
}

}  // namespace greennfv::campaign
