#include "nfvsim/engine_threaded.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "nfvsim/chain.hpp"
#include "nfvsim/ring.hpp"

namespace greennfv::nfvsim {

namespace {

/// Slots per chain RX ring (a typical DPDK RX descriptor ring size).
constexpr std::size_t kRxRingCapacity = 4096;

}  // namespace

ThreadedEngine::ThreadedEngine(OnvmController& controller, Options options)
    : controller_(controller), options_(options) {
  GNFV_REQUIRE(controller_.num_chains() > 0, "ThreadedEngine: no chains");
  GNFV_REQUIRE(options_.total_packets > 0, "ThreadedEngine: zero packets");
}

ThreadedRunReport ThreadedEngine::run(
    const std::vector<traffic::FlowSpec>& flows, std::uint64_t seed) {
  GNFV_REQUIRE(!flows.empty(), "ThreadedEngine::run: no flows");
  for (const auto& flow : flows) {
    GNFV_REQUIRE(flow.chain_index >= 0 &&
                     static_cast<std::size_t>(flow.chain_index) <
                         controller_.num_chains(),
                 "ThreadedEngine: flow references unknown chain");
  }

  const std::size_t n_chains = controller_.num_chains();
  // The packet path: one chain of NFs per controller chain, built from
  // its cost profiles' names and owned by this run.
  std::vector<ServiceChain> chains;
  chains.reserve(n_chains);
  std::vector<std::string> nf_names;
  for (std::size_t c = 0; c < n_chains; ++c) {
    nf_names.clear();
    for (const hwmodel::NfCostProfile& nf : controller_.profiles(c))
      nf_names.push_back(nf.name);
    chains.emplace_back(nf_names);
  }
  Mempool pool(options_.pool_capacity);
  // One RX ring per chain, owned here so chains carry no packet buffers;
  // declared before the threads, so every ring outlives every join.
  std::vector<std::unique_ptr<SpscRing<Packet*>>> rx_rings;
  rx_rings.reserve(n_chains);
  for (std::size_t c = 0; c < n_chains; ++c)
    rx_rings.push_back(std::make_unique<SpscRing<Packet*>>(kRxRingCapacity));

  ThreadedRunReport report;
  report.per_chain_delivered.assign(n_chains, 0);

  std::atomic<bool> generator_done{false};
  std::atomic<std::uint64_t> generated{0};
  std::atomic<std::uint64_t> pool_exhausted{0};
  std::atomic<std::uint64_t> rx_ring_drops{0};
  std::vector<std::atomic<std::uint64_t>> delivered(n_chains);
  std::vector<std::atomic<std::uint64_t>> consumed(n_chains);
  for (auto& d : delivered) d.store(0);
  for (auto& c : consumed) c.store(0);

  const bool hybrid = controller_.sched_mode() == SchedMode::kHybrid;

  // --- worker threads: one per chain -----------------------------------------
  std::vector<std::thread> workers;
  workers.reserve(n_chains);
  for (std::size_t c = 0; c < n_chains; ++c) {
    workers.emplace_back([&, c] {
      ServiceChain& chain = chains[c];
      SpscRing<Packet*>& rx = *rx_rings[c];
      const std::uint32_t batch = controller_.knobs(c).batch;
      std::vector<Packet*> burst(batch);
      int idle_polls = 0;
      for (;;) {
        const std::size_t n =
            rx.try_pop_bulk(std::span<Packet*>(burst.data(), batch));
        if (n == 0) {
          if (generator_done.load(std::memory_order_acquire) && rx.empty())
            break;
          // Hybrid mode sleeps on sustained emptiness (the paper puts NFs
          // to sleep "until a new packet arrives"); poll mode spins.
          if (hybrid && ++idle_polls > 64) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
          } else if (hybrid) {
            std::this_thread::yield();
          }
          continue;
        }
        idle_polls = 0;
        const auto span = std::span<Packet* const>(burst.data(), n);
        const std::size_t ok = chain.process_batch_inline(span);
        delivered[c].fetch_add(ok, std::memory_order_relaxed);
        consumed[c].fetch_add(n, std::memory_order_relaxed);
        for (std::size_t i = 0; i < n; ++i) pool.free(burst[i]);
      }
    });
  }

  // --- generator / RX thread ---------------------------------------------------
  const auto t0 = std::chrono::steady_clock::now();
  std::thread generator([&] {
    Rng rng(seed);
    std::uint64_t next_id = 0;
    std::uint64_t injected = 0;
    std::size_t flow_cursor = 0;
    while (injected < options_.total_packets) {
      const traffic::FlowSpec& flow = flows[flow_cursor];
      flow_cursor = (flow_cursor + 1) % flows.size();
      const std::size_t burst = std::min<std::uint64_t>(
          options_.gen_burst, options_.total_packets - injected);
      for (std::size_t i = 0; i < burst; ++i) {
        Packet* pkt = pool.alloc();
        if (pkt == nullptr) {
          // NIC would drop on mbuf exhaustion.
          pool_exhausted.fetch_add(1, std::memory_order_relaxed);
          ++injected;
          continue;
        }
        pkt->id = next_id++;
        pkt->flow_id = static_cast<std::uint32_t>(flow.id);
        pkt->frame_bytes = flow.pkt_bytes;
        pkt->rx_ts_ns = 0;
        pkt->chain_pos = 0;
        pkt->flags = 0;
        pkt->src_ip = 0xC0A80000u | static_cast<std::uint32_t>(
                                        rng.uniform_u64(4096));
        pkt->dst_ip = 0x0A010100u | static_cast<std::uint32_t>(
                                        rng.uniform_u64(256));
        pkt->src_port =
            static_cast<std::uint16_t>(1024 + rng.uniform_u64(60000));
        pkt->dst_port = static_cast<std::uint16_t>(rng.uniform_u64(9000));
        pkt->ip_proto = flow.proto == traffic::Protocol::kTcp ? 6 : 17;
        pkt->ttl = 64;
        pkt->payload_digest = pkt->id * 0x9E3779B97F4A7C15ull;

        SpscRing<Packet*>& rx =
            *rx_rings[static_cast<std::size_t>(flow.chain_index)];
        // Bounded retry: real NICs buffer briefly, then tail-drop.
        bool pushed = false;
        for (int attempt = 0; attempt < 128 && !pushed; ++attempt) {
          pushed = rx.try_push(pkt);
          if (!pushed) std::this_thread::yield();
        }
        if (!pushed) {
          rx_ring_drops.fetch_add(1, std::memory_order_relaxed);
          pool.free(pkt);
        }
        ++injected;
      }
      generated.store(injected, std::memory_order_relaxed);
    }
    generated.store(injected, std::memory_order_relaxed);
    generator_done.store(true, std::memory_order_release);
  });

  generator.join();
  for (auto& worker : workers) worker.join();
  const auto t1 = std::chrono::steady_clock::now();

  report.generated = generated.load();
  report.pool_exhausted = pool_exhausted.load();
  report.rx_ring_drops = rx_ring_drops.load();
  for (std::size_t c = 0; c < n_chains; ++c) {
    report.per_chain_delivered[c] = delivered[c].load();
    report.delivered += delivered[c].load();
    report.nf_drops += consumed[c].load() - delivered[c].load();
  }
  // Pool-exhausted packets never entered a ring; fold them into generated
  // accounting as RX drops for the conservation check.
  report.rx_ring_drops += report.pool_exhausted;
  report.wall_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  report.delivered_pps =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.delivered) / report.wall_seconds
          : 0.0;
  GNFV_ASSERT(pool.in_use() == 0, "ThreadedEngine: leaked packets");
  return report;
}

}  // namespace greennfv::nfvsim
