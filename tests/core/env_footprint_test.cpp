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
#include "telemetry/metrics.hpp"
#include "traffic/generator.hpp"

/// Heap footprint of one analytic node. The fleet replay keeps an
/// NfvEnvironment per occupied node and reconfigures it on every node
/// rebuild, so whatever one construction allocates sets the replay's peak
/// RSS, and whatever a reconfigure or a window allocates is paid thousands
/// of times per run. A packet ring or a hash-table reserve() in a chain's
/// NFs (the default chains include NAT, EPC and a flow monitor) would
/// bring back about a megabyte per node; this binary pins the budgets by
/// counting the bytes global operator new hands out.

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

  // The budget covers the stateful NFs: NAT, EPC and the flow monitor.
  std::vector<std::string> nfs;
  auto& controller = env.controller();
  for (std::size_t c = 0; c < controller.num_chains(); ++c) {
    for (std::size_t i = 0; i < controller.chain(c).num_nfs(); ++i)
      nfs.push_back(controller.chain(c).nf(i).name());
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
  std::vector<const nfvsim::NetworkFunction*> held;
  for (std::size_t c = 0; c < 4; ++c)
    held.push_back(&env.controller().chain(c).nf(0));

  // Chains 0 and 3 share a composition: a departure keeps the others.
  EnvConfig config = fleet_node(3);
  const std::uint64_t built_before =
      telemetry::metrics::counter("nfvsim.chains_built").value();
  telemetry::metrics::set_enabled(true);
  const auto [bytes, count] =
      allocations_of([&] { env.reconfigure(std::move(config), 4); });
  telemetry::metrics::set_enabled(false);
  EXPECT_EQ(telemetry::metrics::counter("nfvsim.chains_built").value(),
            built_before);
  for (std::size_t c = 0; c < 3; ++c)
    EXPECT_EQ(&env.controller().chain(c).nf(0), held[c]) << c;
  EXPECT_LT(bytes, kReconfigureBudgetBytes)
      << "reconfiguring onto held compositions allocated " << bytes
      << " bytes in " << count << " allocations";
}

}  // namespace
}  // namespace greennfv::core
