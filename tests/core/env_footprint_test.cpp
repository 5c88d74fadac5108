#include "core/environment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

/// Heap footprint of one analytic node. The fleet replay constructs an
/// NfvEnvironment on every node rebuild, so whatever one construction
/// allocates is paid thousands of times per run and sets the replay's peak
/// RSS. A packet ring or a hash-table reserve() in a chain's NFs (the
/// default chains include NAT, EPC and a flow monitor) would bring back
/// about a megabyte per node; this binary pins the budget by counting the
/// bytes global operator new hands out.

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

}  // namespace
}  // namespace greennfv::core
