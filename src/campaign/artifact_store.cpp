#include "campaign/artifact_store.hpp"

#include <exception>
#include <utility>

#include "common/fs_util.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"

namespace greennfv::campaign {

namespace {

Json eval_result_to_json(const core::EvalResult& result) {
  Json json = Json::object();
  json.set("name", result.scheduler);
  json.set("mean_gbps", result.mean_gbps);
  json.set("mean_energy_j", result.mean_energy_j);
  json.set("mean_power_w", result.mean_power_w);
  json.set("mean_efficiency", result.mean_efficiency);
  json.set("sla_satisfaction", result.sla_satisfaction);
  json.set("drop_fraction", result.drop_fraction);
  json.set("windows", result.windows);
  return json;
}

core::EvalResult eval_result_from_json(const Json& json) {
  core::EvalResult result;
  result.scheduler = json.at("name").as_string();
  result.mean_gbps = json.at("mean_gbps").as_double();
  result.mean_energy_j = json.at("mean_energy_j").as_double();
  result.mean_power_w = json.at("mean_power_w").as_double();
  result.mean_efficiency = json.at("mean_efficiency").as_double();
  result.sla_satisfaction = json.at("sla_satisfaction").as_double();
  result.drop_fraction = json.at("drop_fraction").as_double();
  result.windows = json.at("windows").as_integer<int>();
  return result;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root,
                             const std::string& campaign_name)
    : dir_(std::move(root)) {
  // Appended piecewise ("s" + std::string&& trips GCC-12's -Wrestrict
  // false positive).
  dir_ += '/';
  dir_ += sanitize_token(campaign_name);
}

std::string ArtifactStore::run_path(const std::string& run_id) const {
  return dir_ + "/runs/" + run_id + ".json";
}

std::string ArtifactStore::trace_path(const std::string& run_id) const {
  return dir_ + "/runs/" + run_id + ".trace.json";
}

std::string ArtifactStore::series_csv_path(const std::string& run_id) const {
  return dir_ + "/runs/" + run_id + ".series.csv";
}

std::string ArtifactStore::series_json_path(const std::string& run_id) const {
  return dir_ + "/runs/" + run_id + ".series.json";
}

std::string ArtifactStore::manifest_path() const {
  return dir_ + "/manifest.json";
}

Json ArtifactStore::run_to_json(const RunResult& result) {
  Json json = Json::object();
  json.set("run_id", result.run_id);
  json.set("cell_id", result.cell_id);
  json.set("scenario", result.scenario_name);
  Json assignments = Json::object();
  for (const auto& [key, value] : result.assignments)
    assignments.set(key, value);
  json.set("assignments", std::move(assignments));
  // Seeds are 64-bit; JSON numbers are doubles — keep the exact value as
  // a decimal string.
  json.set("seed",
           format("%llu", static_cast<unsigned long long>(result.seed)));
  json.set("scenario_spec", result.scenario_text);
  Json models = Json::array();
  for (const auto& model : result.report.models)
    models.push_back(eval_result_to_json(model.result));
  json.set("models", std::move(models));
  json.set("telemetry", result.report.series.to_json());
  // Written last-in-order; together with the atomic rename this marks a
  // fully-serialized artifact.
  json.set("complete", true);
  return json;
}

RunResult ArtifactStore::run_from_json(const Json& json) {
  RunResult result;
  result.run_id = json.at("run_id").as_string();
  result.cell_id = json.at("cell_id").as_string();
  result.scenario_name = json.at("scenario").as_string();
  for (const auto& [key, value] : json.at("assignments").members())
    result.assignments.emplace_back(key, value.as_string());
  result.seed = std::stoull(json.at("seed").as_string());
  result.scenario_text = json.at("scenario_spec").as_string();
  result.report.scenario = result.scenario_name;
  for (const Json& model : json.at("models").elements()) {
    scenario::ModelReport report;
    report.result = eval_result_from_json(model);
    report.prefix = scenario::series_prefix(report.result.scheduler);
    result.report.models.push_back(std::move(report));
  }
  result.report.series =
      telemetry::Recorder::from_json(json.at("telemetry"));
  result.from_cache = true;
  return result;
}

void ArtifactStore::save_run(const RunResult& result) const {
  write_file_atomic(run_path(result.run_id),
                    run_to_json(result).dump(1) + "\n");
}

std::optional<RunResult> ArtifactStore::load_run(const RunSpec& spec) const {
  const std::string path = run_path(spec.run_id);
  if (!file_exists(path)) return std::nullopt;
  try {
    const Json json = Json::parse(read_file(path));
    if (!json.has("complete") || !json.at("complete").as_bool())
      return std::nullopt;
    RunResult result = run_from_json(json);
    if (result.run_id != spec.run_id) return std::nullopt;
    // run_ids omit base overrides (episodes=, eval_windows=...), so the
    // full resolved-scenario echo is the real coordinate check: an
    // artifact computed under a different configuration must be re-run,
    // not silently reported as this one.
    if (result.scenario_text != spec.scenario.to_text())
      return std::nullopt;
    result.index = spec.index;
    return result;
  } catch (const std::exception& e) {
    // Unreadable/corrupt artifact (interrupted write, hand edit): treat
    // as absent and re-run — loudly, so a resumed campaign says why a
    // run that looked done is executing again.
    GNFV_LOG_WARN("campaign")
        << "discarding corrupt run artifact " << path << ": " << e.what();
    return std::nullopt;
  }
}

void ArtifactStore::save_trace(const std::string& run_id,
                               const Json& trace) const {
  write_file_atomic(trace_path(run_id), trace.dump(1) + "\n");
}

void ArtifactStore::save_series(const std::string& run_id,
                                const telemetry::SeriesTable& series) const {
  series.write_csv(series_csv_path(run_id));
  series.write_json(series_json_path(run_id));
}

void ArtifactStore::save_manifest(const Json& manifest) const {
  write_file_atomic(manifest_path(), manifest.dump(1) + "\n");
}

}  // namespace greennfv::campaign
