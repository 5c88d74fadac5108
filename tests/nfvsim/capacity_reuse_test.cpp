#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "nfvsim/engine_analytic.hpp"
#include "telemetry/metrics.hpp"
#include "traffic/generator.hpp"

/// What the manager and the analytic engine keep between windows: the
/// controller's last knob request per chain, and the window buffer's chain
/// capacities. Neither may change a result, and a redeploy, a reset or a
/// reconfigure drops both.

namespace greennfv::nfvsim {
namespace {

bool bit_equal(const ChainKnobs& a, const ChainKnobs& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return bits(a.cores) == bits(b.cores) &&
         bits(a.freq_ghz) == bits(b.freq_ghz) &&
         bits(a.llc_fraction) == bits(b.llc_fraction) &&
         a.dma_bytes == b.dma_bytes && a.batch == b.batch;
}

ChainKnobs random_request(Rng& rng) {
  ChainKnobs knobs;
  knobs.cores = rng.uniform(-1.0, 6.0);
  knobs.freq_ghz = rng.uniform(0.8, 3.6);
  knobs.llc_fraction = rng.uniform(-0.2, 1.2);
  knobs.dma_bytes = rng.uniform_u64(64 * units::kMiB);
  knobs.batch = static_cast<std::uint32_t>(rng.uniform_int(0, 512));
  return knobs;
}

TEST(CapacityReuse, ApplyKnobsMatchesAFreshControllerAcrossRedeploys) {
  hwmodel::NodeSpec fast;
  fast.fmax_ghz = 3.4;
  fast.total_cores = 8;
  fast.max_dma_buffer_mib = 16.0;
  const std::vector<std::vector<std::string>> nfs = {
      {"firewall", "nat"}, {"ids"}, {"router", "epc", "flow_monitor"}};
  Rng rng(7);
  OnvmController held;
  held.redeploy(hwmodel::NodeSpec{}, SchedMode::kHybrid, nfs);
  std::vector<ChainKnobs> last(nfs.size(), random_request(rng));
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE(step);
    if (step % 100 == 99) {
      // The same requests must be clamped again under the new spec.
      held.redeploy(step % 200 == 99 ? fast : hwmodel::NodeSpec{},
                    SchedMode::kHybrid, nfs);
    }
    const std::size_t c = rng.uniform_u64(nfs.size());
    if (rng.uniform() < 0.5) last[c] = random_request(rng);
    OnvmController fresh;
    fresh.redeploy(held.spec(), SchedMode::kHybrid, nfs);
    const ChainKnobs want = fresh.apply_knobs(c, last[c]);
    ASSERT_TRUE(bit_equal(held.apply_knobs(c, last[c]), want));
    ASSERT_TRUE(bit_equal(held.knobs(c), want));
  }
}

/// One CBR flow per chain at a fixed frame: every window's capacity
/// inputs repeat while the knobs do.
traffic::TrafficGenerator steady_traffic(int chains, std::uint64_t seed) {
  std::vector<traffic::FlowSpec> flows;
  for (int c = 0; c < chains; ++c) {
    traffic::FlowSpec flow;
    flow.id = c;
    flow.chain_index = c;
    flow.mean_rate_pps = 0.2e6 * (c + 1);
    flow.pkt_bytes = 512;
    flows.push_back(flow);
  }
  return traffic::TrafficGenerator(flows, seed);
}

TEST(CapacityReuse, EngineDropsKeptCapacitiesOnResetAndReconfigure) {
  namespace mc = telemetry::metrics;
  const std::vector<std::vector<std::string>> nfs = {
      {"firewall", "nat"}, {"ids", "router"}, {"tunnel_gw"}};
  OnvmController controller;
  controller.redeploy(hwmodel::NodeSpec{}, SchedMode::kHybrid, nfs);
  AnalyticEngine engine(controller, steady_traffic(3, 5));

  mc::set_enabled(true);
  const auto node_evals = mc::counter("nfvsim.node_evals").value();
  const auto capacity_evals = mc::counter("nfvsim.capacity_evals").value();
  EXPECT_EQ(engine.step(1.0).node.capacity_evals, 3);
  EXPECT_EQ(engine.step(1.0).node.capacity_evals, 0);
  engine.reset(6);
  EXPECT_EQ(engine.step(1.0).node.capacity_evals, 3);
  EXPECT_EQ(engine.step(1.0).node.capacity_evals, 0);
  engine.reconfigure(steady_traffic(3, 7).flows(), 7);
  EXPECT_EQ(engine.step(1.0).node.capacity_evals, 3);
  ChainKnobs knobs = controller.knobs(1);
  knobs.batch = 64;
  (void)controller.apply_knobs(1, knobs);
  EXPECT_EQ(engine.step(1.0).node.capacity_evals, 1);
  EXPECT_EQ(mc::counter("nfvsim.node_evals").value() - node_evals, 6u);
  EXPECT_EQ(mc::counter("nfvsim.capacity_evals").value() - capacity_evals,
            10u);
  mc::set_enabled(false);
}

}  // namespace
}  // namespace greennfv::nfvsim
