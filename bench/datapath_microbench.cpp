/// google-benchmark micro-benchmarks of the hot data-path primitives: the
/// lock-free rings, the mempool, the NF work functions, the analytic node
/// model, and the MLP inference the NF controller runs per decision. These
/// are the pieces whose real-machine cost budget the platform depends on —
/// regressions here would invalidate the threaded engine's plumbing.

#include <benchmark/benchmark.h>

#include "hwmodel/node.hpp"
#include "nfvsim/chain.hpp"
#include "nfvsim/mempool.hpp"
#include "nfvsim/ring.hpp"
#include "rl/ddpg.hpp"

namespace {

using namespace greennfv;
using namespace greennfv::nfvsim;

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<Packet*> ring(1024);
  Packet pkt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(&pkt));
    Packet* out = nullptr;
    benchmark::DoNotOptimize(ring.try_pop(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRingPushPop);

void BM_SpscRingBulk(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  SpscRing<Packet*> ring(4096);
  Packet pkt;
  std::vector<Packet*> in(batch, &pkt);
  std::vector<Packet*> out(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring.try_push_bulk(std::span<Packet* const>(in.data(), batch)));
    benchmark::DoNotOptimize(
        ring.try_pop_bulk(std::span<Packet*>(out.data(), batch)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SpscRingBulk)->Arg(2)->Arg(32)->Arg(256);

void BM_MpmcQueue(benchmark::State& state) {
  MpmcQueue<Packet*> queue(1024);
  Packet pkt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.try_push(&pkt));
    Packet* out = nullptr;
    benchmark::DoNotOptimize(queue.try_pop(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcQueue);

void BM_MempoolAllocFree(benchmark::State& state) {
  Mempool pool(4096);
  for (auto _ : state) {
    Packet* pkt = pool.alloc();
    benchmark::DoNotOptimize(pkt);
    pool.free(pkt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MempoolAllocFree);

void BM_ChainInline(benchmark::State& state) {
  ServiceChain chain(standard_chain_nfs(static_cast<int>(state.range(0))));
  Packet pkt;
  pkt.frame_bytes = 512;
  pkt.src_ip = 0xC0A80001;
  pkt.dst_ip = 0x0A010101;
  pkt.dst_port = 443;
  std::uint64_t id = 0;
  for (auto _ : state) {
    pkt.flags = 0;
    pkt.ttl = 64;
    pkt.id = ++id;
    benchmark::DoNotOptimize(chain.process_inline(pkt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainInline)->Arg(0)->Arg(1)->Arg(2);

void BM_NodeModelEvaluate(benchmark::State& state) {
  const hwmodel::NodeModel node;
  std::vector<hwmodel::ChainDeployment> chains(3);
  for (int c = 0; c < 3; ++c) {
    chains[static_cast<std::size_t>(c)].nfs = {
        hwmodel::nf_catalog::firewall(), hwmodel::nf_catalog::router(),
        hwmodel::nf_catalog::ids()};
    chains[static_cast<std::size_t>(c)].workload.offered_pps = 1e6;
    chains[static_cast<std::size_t>(c)].workload.pkt_bytes = 512;
    chains[static_cast<std::size_t>(c)].llc_fraction = 0.33;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.evaluate(chains, true));
  }
}
BENCHMARK(BM_NodeModelEvaluate);

void BM_DdpgActorInference(benchmark::State& state) {
  rl::DdpgConfig config;
  config.state_dim = 12;
  config.action_dim = 15;
  const rl::DdpgAgent agent(config, 7);
  const std::vector<double> obs(12, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act(obs));
  }
}
BENCHMARK(BM_DdpgActorInference);

void BM_DdpgTrainStep(benchmark::State& state) {
  rl::DdpgConfig config;
  config.state_dim = 12;
  config.action_dim = 15;
  config.batch_size = 64;
  rl::DdpgAgent agent(config, 7);
  rl::UniformReplay replay(1024);
  Rng rng(9);
  for (int i = 0; i < 256; ++i) {
    rl::Transition t;
    t.state.assign(12, rng.uniform());
    t.action.assign(15, rng.uniform(-1, 1));
    t.reward = rng.uniform();
    t.next_state.assign(12, rng.uniform());
    replay.add(std::move(t), 0.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.train_step(replay, rng));
  }
}
BENCHMARK(BM_DdpgTrainStep);

}  // namespace

BENCHMARK_MAIN();
