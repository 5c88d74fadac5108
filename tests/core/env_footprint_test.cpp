#include "core/environment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "nfvsim/chain.hpp"
#include "nfvsim/engine_threaded.hpp"
#include "telemetry/metrics.hpp"
#include "traffic/generator.hpp"

/// Heap footprint of one analytic node. The fleet replay keeps an
/// NfvEnvironment per occupied node and reconfigures it on every node
/// rebuild, so whatever one construction allocates sets the replay's peak
/// RSS, and whatever a reconfigure or a window allocates is paid thousands
/// of times per run. An analytic node holds its chains' cost profiles and
/// builds no NF: a packet ring or the NFs' tables (the default chains
/// include NAT, EPC and a flow monitor) would bring back up to a megabyte
/// per node. This binary pins the budgets by counting the bytes global
/// operator new hands out, and the NF chains built by the
/// `nfvsim.chains_built` counter.

// --- allocation counting -----------------------------------------------------

namespace {
std::atomic<long long> g_alloc_bytes{0};
std::atomic<long long> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void count(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_bytes.fetch_add(static_cast<long long>(n),
                            std::memory_order_relaxed);
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t n) {
  count(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  count(n);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace greennfv::core {
namespace {

constexpr long long kBudgetBytes = 64 * 1024;
/// A fleet node's reconfigure onto held compositions re-makes only its
/// flows' arrival processes.
constexpr long long kReconfigureBudgetBytes = 512;

/// Bytes and allocations `body` makes.
template <class Body>
std::pair<long long, long long> allocations_of(Body&& body) {
  g_alloc_bytes.store(0);
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  body();
  g_count_allocs.store(false);
  return {g_alloc_bytes.load(), g_alloc_count.load()};
}

/// A fleet node's configuration: explicit compositions and flows.
EnvConfig fleet_node(int chains) {
  EnvConfig config;
  config.num_chains = chains;
  config.window_s = 2.0;
  config.sub_windows = 2;
  for (int c = 0; c < chains; ++c)
    config.chain_nfs.push_back(nfvsim::standard_chain_nfs(c));
  config.flows = traffic::make_eval_flows(6, chains, 12.0, 5);
  config.num_flows = 6;
  return config;
}

TEST(EnvFootprint, DefaultEnvironmentConstructsUnder64KiB) {
  EnvConfig config;
  g_alloc_bytes.store(0);
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  NfvEnvironment env(std::move(config), 1);
  g_count_allocs.store(false);

  EXPECT_LT(g_alloc_bytes.load(), kBudgetBytes)
      << "constructing one default NfvEnvironment allocated "
      << g_alloc_bytes.load() << " bytes in " << g_alloc_count.load()
      << " allocations";

  // The default chains name the stateful NFs: NAT, EPC and the flow
  // monitor.
  std::vector<std::string> nfs;
  const auto& controller = env.controller();
  for (std::size_t c = 0; c < controller.num_chains(); ++c) {
    for (const hwmodel::NfCostProfile& nf : controller.profiles(c))
      nfs.push_back(nf.name);
  }
  for (const char* stateful : {"nat", "epc", "flow_monitor"}) {
    EXPECT_NE(std::find(nfs.begin(), nfs.end(), stateful), nfs.end())
        << stateful;
  }
}

TEST(EnvFootprint, WindowsAfterTheFirstAllocateNothing) {
  NfvEnvironment env(fleet_node(4), 3);
  const std::vector<nfvsim::ChainKnobs> knobs = env.last_knobs();
  (void)env.run_window(knobs);
  for (const bool cat : {true, false}) {
    env.controller().set_use_cat(cat);
    const auto [bytes, count] =
        allocations_of([&] { (void)env.run_window(knobs); });
    EXPECT_EQ(bytes, 0) << "a " << (cat ? "CAT" : "shared-LLC")
                        << " window allocated " << count << " times";
  }
}

TEST(EnvFootprint, ReconfigureOntoHeldCompositionsBuildsNoNf) {
  NfvEnvironment env(fleet_node(4), 3);
  (void)env.run_window(env.last_knobs());

  // Chain 3 departs; chains 0-2 keep their compositions.
  EnvConfig config = fleet_node(3);
  const std::uint64_t built_before =
      telemetry::metrics::counter("nfvsim.chains_built").value();
  telemetry::metrics::set_enabled(true);
  const auto [bytes, count] =
      allocations_of([&] { env.reconfigure(std::move(config), 4); });
  telemetry::metrics::set_enabled(false);
  EXPECT_EQ(telemetry::metrics::counter("nfvsim.chains_built").value(),
            built_before);
  EXPECT_LT(bytes, kReconfigureBudgetBytes)
      << "reconfiguring onto held compositions allocated " << bytes
      << " bytes in " << count << " allocations";
}

TEST(EnvFootprint, OnlyThePacketPathBuildsChains) {
  auto& built = telemetry::metrics::counter("nfvsim.chains_built");
  telemetry::metrics::set_enabled(true);
  const std::uint64_t before = built.value();

  NfvEnvironment env(fleet_node(3), 7);
  (void)env.run_window(env.last_knobs());
  // Compositions this node never held, longer and shorter than before.
  EnvConfig config = fleet_node(4);
  config.chain_nfs = {{"nat", "epc"},
                      {"ids"},
                      {"tunnel_gw", "router", "flow_monitor", "epc"},
                      {"firewall", "nat", "nat"}};
  env.reconfigure(std::move(config), 8);
  (void)env.reset(9);
  (void)env.run_window(env.last_knobs());
  EXPECT_EQ(built.value(), before) << "an analytic node built NF chains";

  // The threaded engine builds one packet-path chain per controller chain
  // for each run.
  nfvsim::ThreadedEngine::Options options;
  options.total_packets = 2000;
  nfvsim::ThreadedEngine threaded(env.controller(), options);
  std::vector<traffic::FlowSpec> flows(env.controller().num_chains());
  for (std::size_t c = 0; c < flows.size(); ++c) {
    flows[c].id = static_cast<int>(c);
    flows[c].pkt_bytes = 256;
    flows[c].chain_index = static_cast<int>(c);
  }
  EXPECT_TRUE(threaded.run(flows, 10).conserved());
  EXPECT_EQ(built.value(), before + env.controller().num_chains());
  telemetry::metrics::set_enabled(false);
}

}  // namespace
}  // namespace greennfv::core
