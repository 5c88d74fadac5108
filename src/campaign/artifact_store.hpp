#pragma once

#include <memory>
#include <optional>
#include <string>

#include "campaign/campaign_spec.hpp"
#include "common/json.hpp"
#include "scenario/experiment.hpp"
#include "telemetry/series.hpp"

/// \file artifact_store.hpp
/// On-disk layout of a campaign: `<root>/<campaign>/runs/<run_id>.json`
/// holds one run's per-model metrics plus its telemetry series, and
/// `<root>/<campaign>/manifest.json` holds the campaign spec, the run
/// index, and the aggregated statistics. Run files are written atomically
/// (temp + rename) and carry a "complete" marker, so a crashed sweep
/// resumes by re-running exactly the missing/corrupt runs — and a resumed
/// campaign reproduces the fresh campaign's aggregates bit for bit,
/// because doubles round-trip through the JSON exactly.

namespace greennfv::campaign {

/// One executed (or resumed-from-disk) run of the matrix.
struct RunResult {
  std::size_t index = 0;
  std::string run_id;
  std::string cell_id;
  std::string scenario_name;
  std::vector<std::pair<std::string, std::string>> assignments;
  std::uint64_t seed = 0;
  /// The resolved scenario's to_text() echo — the artifact's full
  /// coordinate. Resume compares it against the current matrix entry, so
  /// an artifact produced under different overrides (episodes=5,
  /// eval_windows=2...) is re-run instead of silently reused.
  std::string scenario_text;
  /// True when the result was loaded from a previous campaign's artifact
  /// instead of executed.
  bool from_cache = false;
  /// A run whose execution threw: the campaign records the failure (run
  /// id + error), finishes the remaining cells, and exits non-zero. A
  /// failed run writes no artifact and is excluded from aggregation.
  bool failed = false;
  std::string error;
  /// Per-model results + telemetry, exactly as FleetOrchestrator returns.
  scenario::EvalReport report;
  /// Per-window fleet health series (fleet runs with
  /// telemetry::series::enabled() only; null otherwise). Exported as a
  /// side artifact (`runs/<id>.series.{csv,json}`) — never part of the
  /// run JSON or the manifest, so series sampling cannot perturb resume
  /// or aggregation.
  std::shared_ptr<const telemetry::SeriesTable> fleet_series;
};

class ArtifactStore {
 public:
  /// Artifacts live under `<root>/<campaign_name>/`. Directories are
  /// created lazily on first write.
  ArtifactStore(std::string root, const std::string& campaign_name);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string run_path(const std::string& run_id) const;
  /// Flight-recorder slice for one run, next to its artifact:
  /// `<root>/<campaign>/runs/<run_id>.trace.json`.
  [[nodiscard]] std::string trace_path(const std::string& run_id) const;
  /// Per-window health series for one run, next to its artifact:
  /// `<root>/<campaign>/runs/<run_id>.series.{csv,json}`.
  [[nodiscard]] std::string series_csv_path(const std::string& run_id) const;
  [[nodiscard]] std::string series_json_path(const std::string& run_id) const;
  [[nodiscard]] std::string manifest_path() const;

  /// Serializes and atomically writes one run artifact.
  void save_run(const RunResult& result) const;

  /// Atomically writes one run's Perfetto trace document. Trace files are
  /// observability artifacts only: save_run/load_run/manifest never read
  /// them, so tracing cannot perturb campaign results or resume.
  void save_trace(const std::string& run_id, const Json& trace) const;

  /// Atomically writes one run's health series as CSV + JSON. Like trace
  /// slices, series files are observability artifacts only — resume and
  /// aggregation never depend on them.
  void save_series(const std::string& run_id,
                   const telemetry::SeriesTable& series) const;

  /// Loads a completed run for `spec`, or nullopt when the artifact is
  /// missing, unreadable, incomplete, or belongs to a different
  /// configuration (run_id or resolved-scenario echo mismatch) — any of
  /// which means "re-run it".
  [[nodiscard]] std::optional<RunResult> load_run(const RunSpec& spec) const;

  void save_manifest(const Json& manifest) const;

  /// JSON forms shared with tests and the CLI's manifest validation.
  [[nodiscard]] static Json run_to_json(const RunResult& result);
  [[nodiscard]] static RunResult run_from_json(const Json& json);

 private:
  std::string dir_;
};

}  // namespace greennfv::campaign
