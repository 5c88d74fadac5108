#include "core/environment.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "core/ee_pstate.hpp"
#include "core/heuristic.hpp"
#include "core/nf_controller.hpp"
#include "core/scheduler.hpp"
#include "nfvsim/chain.hpp"

/// NfvEnvironment::reconfigure against fresh construction. One environment
/// is reconfigured through random configurations: 1-6 chains, standard and
/// custom compositions, generated and explicit flows (TCP among them, at
/// loads that drop), seeds, rate profiles, SLAs and node specs. After each
/// one it must equal NfvEnvironment(config, seed) bit for bit: the
/// controller's chain profiles, knobs and modes, then every window outcome
/// field, the observations, the applied knobs, the engine's clock and
/// meter and the generator's clock over K windows under Baseline (CAT
/// off), EE-Pstate and Heuristics, and the encoded states and rewards of
/// a reset/step episode.

namespace greennfv::core {
namespace {

constexpr int kConfigs = 60;
constexpr int kWindows = 3;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::string> random_composition(Rng& rng) {
  static const std::vector<std::string> kNfs = {
      "firewall", "nat", "router", "ids", "tunnel_gw", "epc", "flow_monitor"};
  // Mostly the standard rotation, so compositions often repeat.
  if (rng.bernoulli(0.6))
    return nfvsim::standard_chain_nfs(static_cast<int>(rng.uniform_int(0, 2)));
  std::vector<std::string> nfs;
  const auto length = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < length; ++i)
    nfs.push_back(kNfs[rng.uniform_u64(kNfs.size())]);
  return nfs;
}

traffic::RateProfile random_profile(Rng& rng) {
  traffic::RateProfile profile;
  switch (rng.uniform_int(0, 3)) {
    case 0: break;
    case 1: profile.kind = traffic::RateProfile::Kind::kDiurnal; break;
    case 2: profile.kind = traffic::RateProfile::Kind::kBursty; break;
    default: profile.kind = traffic::RateProfile::Kind::kFlashCrowd; break;
  }
  profile.period_s = rng.uniform(4.0, 60.0);
  profile.amplitude = rng.uniform(0.1, 0.9);
  profile.surge_start_s = rng.uniform(0.0, 10.0);
  profile.surge_duration_s = rng.uniform(1.0, 10.0);
  profile.surge_factor = rng.uniform(1.5, 4.0);
  return profile;
}

EnvConfig random_config(Rng& rng, int index) {
  EnvConfig config;
  if (index % 5 == 4) {
    // Another node class: the DVFS ladder and node model must follow.
    config.spec.total_cores = static_cast<int>(rng.uniform_int(8, 32));
    config.spec.fmax_ghz = rng.uniform(2.2, 3.4);
    config.spec.line_rate_gbps = rng.bernoulli(0.5) ? 10.0 : 25.0;
    config.spec.p_max_w = rng.uniform(200.0, 400.0);
  }
  config.num_chains = static_cast<int>(rng.uniform_int(1, 6));
  config.window_s = rng.uniform(0.5, 4.0);
  config.sub_windows = static_cast<int>(rng.uniform_int(1, 3));
  config.steps_per_episode = static_cast<int>(rng.uniform_int(2, 5));
  switch (rng.uniform_int(0, 2)) {
    case 0: config.sla = Sla::energy_efficiency(); break;
    case 1: config.sla = Sla::max_throughput(rng.uniform(100.0, 3000.0)); break;
    default:
      config.sla = Sla::min_energy(rng.uniform(1.0, 8.0),
                                   rng.uniform(100.0, 3000.0));
      break;
  }
  config.shaped_reward = rng.bernoulli(0.3);
  if (rng.bernoulli(0.5)) {
    for (int c = 0; c < config.num_chains; ++c)
      config.chain_nfs.push_back(random_composition(rng));
  }
  if (rng.bernoulli(0.5)) {
    config.num_flows = static_cast<int>(rng.uniform_int(1, 8));
    config.total_offered_gbps = rng.uniform(2.0, 16.0);
  } else {
    const auto flows = rng.uniform_int(1, 8);
    for (std::int64_t i = 0; i < flows; ++i) {
      traffic::FlowSpec flow;
      flow.id = static_cast<int>(i);
      flow.proto = rng.bernoulli(0.5) ? traffic::Protocol::kTcp
                                      : traffic::Protocol::kUdp;
      flow.arrival = static_cast<traffic::ArrivalKind>(rng.uniform_int(0, 3));
      flow.pkt_bytes = static_cast<std::uint32_t>(rng.uniform_int(64, 1518));
      flow.mean_rate_pps = rng.uniform(1e5, 4e6);
      flow.peak_to_mean = rng.uniform(1.0, 3.0);
      flow.dwell_s = rng.uniform(0.2, 1.0);
      flow.chain_index =
          static_cast<int>(rng.uniform_int(0, config.num_chains - 1));
      config.flows.push_back(flow);
    }
    config.num_flows = static_cast<int>(config.flows.size());
  }
  config.rate_profile = random_profile(rng);
  return config;
}

std::unique_ptr<Scheduler> make_scheduler(int kind,
                                          const hwmodel::NodeSpec& spec) {
  switch (kind) {
    case 0: return std::make_unique<BaselineScheduler>(spec);
    case 1: return std::make_unique<EePstateScheduler>(spec, EePstateConfig{});
    default:
      return std::make_unique<HeuristicScheduler>(spec, HeuristicConfig{});
  }
}

void expect_knobs_equal(const nfvsim::ChainKnobs& got,
                        const nfvsim::ChainKnobs& want) {
  EXPECT_EQ(bits(got.cores), bits(want.cores));
  EXPECT_EQ(bits(got.freq_ghz), bits(want.freq_ghz));
  EXPECT_EQ(bits(got.llc_fraction), bits(want.llc_fraction));
  EXPECT_EQ(got.dma_bytes, want.dma_bytes);
  EXPECT_EQ(got.batch, want.batch);
}

/// Everything a caller can read back from the two environments.
void expect_same(NfvEnvironment& got, NfvEnvironment& want) {
  const auto& a = got.last_outcome();
  const auto& b = want.last_outcome();
  EXPECT_EQ(bits(a.throughput_gbps), bits(b.throughput_gbps));
  EXPECT_EQ(bits(a.energy_j), bits(b.energy_j));
  EXPECT_EQ(bits(a.reward), bits(b.reward));
  EXPECT_EQ(bits(a.efficiency), bits(b.efficiency));
  EXPECT_EQ(bits(a.drop_fraction), bits(b.drop_fraction));
  EXPECT_EQ(bits(a.offered_pps), bits(b.offered_pps));
  EXPECT_EQ(a.sla_satisfied, b.sla_satisfied);
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t c = 0; c < a.observations.size(); ++c) {
    EXPECT_EQ(bits(a.observations[c].throughput_gbps),
              bits(b.observations[c].throughput_gbps));
    EXPECT_EQ(bits(a.observations[c].energy_j),
              bits(b.observations[c].energy_j));
    EXPECT_EQ(bits(a.observations[c].busy_cores),
              bits(b.observations[c].busy_cores));
    EXPECT_EQ(bits(a.observations[c].arrival_pps),
              bits(b.observations[c].arrival_pps));
  }
  ASSERT_EQ(got.last_knobs().size(), want.last_knobs().size());
  for (std::size_t c = 0; c < got.last_knobs().size(); ++c)
    expect_knobs_equal(got.last_knobs()[c], want.last_knobs()[c]);
  EXPECT_EQ(bits(got.engine().time_s()), bits(want.engine().time_s()));
  EXPECT_EQ(bits(got.engine().meter().total_joules()),
            bits(want.engine().meter().total_joules()));
  EXPECT_EQ(bits(got.engine().meter().total_seconds()),
            bits(want.engine().meter().total_seconds()));
  EXPECT_EQ(bits(got.generator().time_s()), bits(want.generator().time_s()));
}

/// The controller as freshly deployed: chain profiles, knobs and modes.
void expect_same_deployment(NfvEnvironment& got, NfvEnvironment& want) {
  auto& a = got.controller();
  auto& b = want.controller();
  EXPECT_TRUE(a.spec() == b.spec());
  EXPECT_EQ(a.dvfs().ladder(), b.dvfs().ladder());
  EXPECT_EQ(a.dvfs().governor(), b.dvfs().governor());
  EXPECT_EQ(a.use_cat(), b.use_cat());
  EXPECT_EQ(a.sched_mode(), b.sched_mode());
  ASSERT_EQ(a.num_chains(), b.num_chains());
  for (std::size_t c = 0; c < a.num_chains(); ++c) {
    ASSERT_EQ(a.profiles(c).size(), b.profiles(c).size());
    for (std::size_t k = 0; k < a.profiles(c).size(); ++k)
      EXPECT_EQ(a.profiles(c)[k].name, b.profiles(c)[k].name);
    expect_knobs_equal(a.knobs(c), b.knobs(c));
  }
  EXPECT_EQ(got.state_dim(), want.state_dim());
  EXPECT_EQ(got.action_dim(), want.action_dim());
  const auto& got_flows = got.generator().flows();
  const auto& want_flows = want.generator().flows();
  ASSERT_EQ(got_flows.size(), want_flows.size());
  for (std::size_t i = 0; i < got_flows.size(); ++i) {
    EXPECT_EQ(got_flows[i].chain_index, want_flows[i].chain_index);
    EXPECT_EQ(got_flows[i].proto, want_flows[i].proto);
    EXPECT_EQ(got_flows[i].arrival, want_flows[i].arrival);
    EXPECT_EQ(got_flows[i].pkt_bytes, want_flows[i].pkt_bytes);
    EXPECT_EQ(bits(got_flows[i].mean_rate_pps),
              bits(want_flows[i].mean_rate_pps));
  }
  EXPECT_EQ(got.generator().rate_profile().kind,
            want.generator().rate_profile().kind);
  EXPECT_EQ(bits(got.generator().rate_profile().period_s),
            bits(want.generator().rate_profile().period_s));
}

void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(bits(got[i]), bits(want[i])) << "element " << i;
}

TEST(EnvReconfigure, MatchesFreshConstructionAcrossRandomConfigs) {
  Rng rng(20261018);
  NfvEnvironment reused(random_config(rng, 0), 1);
  for (int i = 0; i < kConfigs; ++i) {
    const EnvConfig config = random_config(rng, i);
    for (int run = 0; run < 4; ++run) {
      SCOPED_TRACE(format("config %d (%d chains, %zu custom), run %d", i,
                          config.num_chains, config.chain_nfs.size(), run));
      const std::uint64_t seed = rng.next_u64();
      reused.reconfigure(config, seed);
      NfvEnvironment fresh(config, seed);
      expect_same_deployment(reused, fresh);
      expect_same(reused, fresh);
      EXPECT_TRUE(reused.last_outcome().observations.empty());

      if (run < 3) {
        const auto got_policy = make_scheduler(run, config.spec);
        const auto want_policy = make_scheduler(run, config.spec);
        NfController got(reused, *got_policy);
        NfController want(fresh, *want_policy);
        for (int w = 0; w < kWindows; ++w) {
          (void)got.run(1);
          (void)want.run(1);
          expect_same(reused, fresh);
        }
        continue;
      }
      const std::uint64_t episode_seed = rng.next_u64();
      expect_bits_equal(reused.reset(episode_seed), fresh.reset(episode_seed));
      expect_same(reused, fresh);
      for (int w = 0; w < kWindows; ++w) {
        std::vector<double> action(reused.action_dim());
        for (double& a : action) a = rng.uniform(-1.0, 1.0);
        const auto got = reused.step(action);
        const auto want = fresh.step(action);
        expect_bits_equal(got.next_state, want.next_state);
        EXPECT_EQ(bits(got.reward), bits(want.reward));
        EXPECT_EQ(got.done, want.done);
        expect_same(reused, fresh);
      }
    }
  }
}

}  // namespace
}  // namespace greennfv::core
