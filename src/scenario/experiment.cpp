#include "scenario/experiment.hpp"

#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "common/string_util.hpp"
#include "core/ee_pstate.hpp"
#include "core/greennfv.hpp"
#include "core/heuristic.hpp"
#include "nfvsim/chain.hpp"
#include "traffic/generator.hpp"

namespace greennfv::scenario {

namespace {

/// Lowercased alphanumerics with single '_' separators:
/// "GreenNFV(MaxT)" -> "greennfv_maxt".
std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

/// Fig. 9's seed discipline, centralized: training seed offsets per
/// GreenNFV variant, Q-learning at +3, evaluation environments at +77
/// (per-node stride keeps cluster nodes on independent realizations).
constexpr std::uint64_t kQlearningSeedOffset = 3;
constexpr std::uint64_t kEvalSeedOffset = 77;
constexpr std::uint64_t kNodeSeedStride = 9973;

SchedulerFactory greennfv_factory(const ScenarioSpec& spec,
                                  const std::string& label,
                                  core::SlaKind sla_kind,
                                  std::uint64_t seed_offset) {
  SchedulerFactory factory;
  factory.name = label;
  factory.warmup = 2;
  factory.make = [spec, label, sla_kind, seed_offset](
                     const core::EnvConfig& env, std::uint64_t seed) {
    core::TrainerConfig trainer;
    trainer.env = env;  // per-node shape; the training SLA replaces eval's
    trainer.env.sla = spec.sla(sla_kind);
    trainer.episodes = spec.episodes;
    trainer.seed = seed + seed_offset;
    trainer.prioritized_replay = spec.prioritized_replay;
    trainer.noise_sigma = spec.noise_sigma;
    trainer.noise_decay = spec.noise_decay;
    std::printf("[train] %s, %d episodes x %d seeds...\n", label.c_str(),
                spec.episodes, spec.candidates);
    return core::train_best_scheduler(trainer, label, spec.candidates);
  };
  return factory;
}

}  // namespace

std::string series_prefix(const std::string& model_name) {
  return sanitize(model_name) + "_";
}

std::uint64_t node_eval_seed(const ScenarioSpec& spec, std::size_t node) {
  return spec.seed + kEvalSeedOffset + kNodeSeedStride * node;
}

std::vector<traffic::FlowSpec> resolved_flows(const ScenarioSpec& spec) {
  return spec.flows.empty()
             ? traffic::make_eval_flows(spec.num_flows, spec.num_chains,
                                        spec.total_offered_gbps, spec.seed)
             : spec.flows;
}

std::vector<std::vector<std::string>> resolved_chain_nfs(
    const ScenarioSpec& spec) {
  std::vector<std::vector<std::string>> comps;
  for (int c = 0; c < spec.num_chains; ++c) {
    comps.push_back(spec.chain_nfs.empty()
                        ? nfvsim::standard_chain_nfs(c)
                        : spec.chain_nfs[static_cast<std::size_t>(c)]);
  }
  return comps;
}

core::EnvConfig partition_node_env(
    const ScenarioSpec& spec,
    const std::vector<std::vector<std::string>>& comps,
    const std::vector<traffic::FlowSpec>& flows,
    const std::vector<int>& local_chains, int node) {
  std::vector<std::vector<std::string>> chain_nfs;
  chain_nfs.reserve(local_chains.size());
  for (const int c : local_chains)
    chain_nfs.push_back(comps.at(static_cast<std::size_t>(c)));
  std::vector<traffic::FlowSpec> local_flows;
  for (const auto& flow : flows) {
    for (std::size_t local = 0; local < local_chains.size(); ++local) {
      if (flow.chain_index != local_chains[local]) continue;
      local_flows.push_back(flow);
      local_flows.back().chain_index = static_cast<int>(local);
    }
  }
  return node_env(spec, std::move(chain_nfs), std::move(local_flows), node);
}

core::EnvConfig node_env(const ScenarioSpec& spec,
                         std::vector<std::vector<std::string>> chain_nfs,
                         std::vector<traffic::FlowSpec> flows, int node) {
  core::EnvConfig env = spec.env_config();
  env.num_chains = static_cast<int>(chain_nfs.size());
  env.chain_nfs = std::move(chain_nfs);
  env.flows = std::move(flows);
  env.total_offered_gbps = 0.0;
  for (std::size_t i = 0; i < env.flows.size(); ++i) {
    env.flows[i].id = static_cast<int>(i);
    env.total_offered_gbps += env.flows[i].mean_rate_gbps();
  }
  if (env.flows.empty()) {
    throw std::invalid_argument(format(
        "scenario: node %d hosts %d chain(s) but receives no flows", node,
        env.num_chains));
  }
  env.num_flows = static_cast<int>(env.flows.size());
  return env;
}

std::vector<SchedulerFactory> untrained_roster(const ScenarioSpec&) {
  std::vector<SchedulerFactory> roster;
  roster.push_back(
      {"Baseline", 2, [](const core::EnvConfig& env, std::uint64_t) {
         return std::make_unique<core::BaselineScheduler>(env.spec);
       }});
  // Algorithm 1 converges slowly (§5.1): long warmup before measuring.
  roster.push_back(
      {"Heuristics", 40, [](const core::EnvConfig& env, std::uint64_t) {
         return std::make_unique<core::HeuristicScheduler>(
             env.spec, core::HeuristicConfig{});
       }});
  roster.push_back(
      {"EE-Pstate", 6, [](const core::EnvConfig& env, std::uint64_t) {
         return std::make_unique<core::EePstateScheduler>(
             env.spec, core::EePstateConfig{});
       }});
  return roster;
}

std::vector<SchedulerFactory> default_roster(const ScenarioSpec& spec) {
  std::vector<SchedulerFactory> roster = untrained_roster(spec);
  const int q_episodes = spec.q_episodes;
  roster.push_back(
      {"Q-Learning", 2,
       [q_episodes](const core::EnvConfig& env, std::uint64_t seed) {
         std::printf("[train] Q-Learning, %d episodes...\n", q_episodes);
         return core::train_qlearning_scheduler(
             env, q_episodes, seed + kQlearningSeedOffset);
       }});
  roster.push_back(greennfv_factory(spec, "GreenNFV(MinE)",
                                    core::SlaKind::kMinEnergy, 0));
  roster.push_back(greennfv_factory(spec, "GreenNFV(MaxT)",
                                    core::SlaKind::kMaxThroughput, 1));
  roster.push_back(greennfv_factory(spec, "GreenNFV(EE)",
                                    core::SlaKind::kEnergyEfficiency, 2));
  return roster;
}

std::vector<SchedulerFactory> filter_roster(
    const std::vector<SchedulerFactory>& roster, const std::string& csv) {
  std::vector<SchedulerFactory> picked;
  for (const auto& token : split(csv, ',')) {
    const std::string want = sanitize(std::string(trim(token)));
    if (want.empty()) continue;
    for (const auto& entry : picked) {
      if (sanitize(entry.name) == want) {
        throw std::invalid_argument("scenario: model '" + entry.name +
                                    "' picked twice in models=");
      }
    }
    bool found = false;
    for (const auto& entry : roster) {
      if (sanitize(entry.name) == want) {
        picked.push_back(entry);
        found = true;
        break;
      }
    }
    if (!found) {
      std::string known;
      for (const auto& entry : roster) {
        if (!known.empty()) known += ", ";
        known += entry.name;
      }
      throw std::invalid_argument("scenario: unknown model '" +
                                  std::string(trim(token)) +
                                  "' (roster: " + known + ")");
    }
  }
  if (picked.empty())
    throw std::invalid_argument("scenario: models= selected nothing");
  return picked;
}

std::string EvalReport::table() const {
  std::vector<std::vector<std::string>> rows;
  const double base_gbps =
      models.empty() ? 1.0 : models.front().result.mean_gbps;
  const double base_energy =
      models.empty() ? 1.0 : models.front().result.mean_energy_j;
  for (const auto& model : models) {
    const core::EvalResult& r = model.result;
    rows.push_back(
        {r.scheduler, format_double(r.mean_gbps, 2),
         format_double(r.mean_energy_j, 0),
         format_double(base_gbps > 0.0 ? r.mean_gbps / base_gbps : 0.0, 2) +
             "x",
         format_double(
             base_energy > 0.0 ? r.mean_energy_j / base_energy * 100.0
                               : 0.0,
             0) +
             "%",
         format_double(r.mean_efficiency, 2),
         format_double(r.sla_satisfaction * 100.0, 0) + "%",
         format_double(r.drop_fraction * 100.0, 1) + "%"});
  }
  return render_table({"model", "Gbps", "Energy(J)", "T vs base",
                       "E vs base", "Efficiency", "SLA met", "drop"},
                      rows);
}

}  // namespace greennfv::scenario
