#include "hwmodel/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace greennfv::hwmodel {

CacheDemand CostModel::demand_of(const std::vector<NfCostProfile>& nfs,
                                 std::uint32_t pkt_bytes,
                                 const ChainResources& res) const {
  CacheDemand demand;
  demand.state_bytes = total_state_bytes(nfs);
  // In-flight batch footprint. Packets live in fixed-size mbufs (DPDK uses
  // 2 KB buffers regardless of frame length), so the cache pressure of a
  // batch scales with max(frame, mbuf) — which is why oversized batches
  // thrash the LLC even for small frames (paper Fig. 3b).
  constexpr double kMbufBytes = 2048.0;
  const double per_pkt = std::max<double>(pkt_bytes, kMbufBytes);
  demand.packet_window_bytes = static_cast<std::uint64_t>(
      static_cast<double>(res.batch) * per_pkt *
      spec_.batch_footprint_factor);
  demand.dma_buffer_bytes = res.dma_bytes;
  demand.shared_unpartitioned = res.shared_llc;
  return demand;
}

ChainEvaluation CostModel::evaluate_chain(
    const std::vector<NfCostProfile>& nfs, const ChainWorkload& load,
    const ChainResources& res) const {
  return evaluate_load(capacity(nfs, load.pkt_bytes, res), load, res);
}

ChainCapacity CostModel::capacity(const std::vector<NfCostProfile>& nfs,
                                  std::uint32_t pkt_bytes,
                                  const ChainResources& res) const {
  GNFV_REQUIRE(!nfs.empty(), "evaluate_chain: empty chain");
  GNFV_REQUIRE(res.cores > 0.0, "evaluate_chain: zero cores");
  GNFV_REQUIRE(res.freq_ghz > 0.0, "evaluate_chain: zero frequency");
  GNFV_REQUIRE(res.batch >= 1, "evaluate_chain: batch must be >= 1");
  GNFV_REQUIRE(pkt_bytes >= 64, "evaluate_chain: sub-minimum frame");

  ChainCapacity out;

  // --- cache behaviour ------------------------------------------------------
  const CacheDemand demand = demand_of(nfs, pkt_bytes, res);
  const CacheBehaviour cache = cache_.evaluate(demand, res.llc_bytes);
  out.miss_ratio = cache.miss_ratio;
  out.ddio_hit = cache.ddio_hit;
  out.working_set_bytes = cache.working_set_bytes;

  // A miss costs constant *time*, so its cycle cost grows with frequency.
  const double miss_penalty_cycles = spec_.mem_latency_ns * res.freq_ghz;

  // --- per-packet cycles ----------------------------------------------------
  double cycles = 0.0;
  double misses = 0.0;
  for (const auto& nf : nfs) {
    cycles += nf.base_cycles +
              nf.cycles_per_byte * static_cast<double>(pkt_bytes);
    misses += nf.mem_refs_per_pkt * cache.miss_ratio;
  }
  // First NF reads the packet out of DDIO (or DRAM if the buffer spilled;
  // prefetchers hide most of the sequential read, hence the spill-touch
  // discount).
  const double pkt_lines =
      std::ceil(static_cast<double>(pkt_bytes) / spec_.cache_line_bytes) *
      spec_.pkt_touch_fraction;
  misses += pkt_lines * (1.0 - cache.ddio_hit) * spec_.ddio_spill_touch;
  cycles += misses * miss_penalty_cycles;

  // Ring hops: RX -> NF1 -> ... -> NFn -> TX. Per-wakeup cost amortizes
  // over the batch — the mechanism behind Fig. 3's batching win.
  const double hops = static_cast<double>(nfs.size()) + 1.0;
  cycles += hops * (spec_.hop_cycles +
                    spec_.per_call_cycles / static_cast<double>(res.batch));

  out.cycles_per_pkt = cycles;
  out.misses_per_pkt = misses;

  // --- capacity ---------------------------------------------------------------
  const double cpu_pps =
      res.cores * units::ghz_to_hz(res.freq_ghz) / cycles;
  // The DMA buffer limits how much of the line rate the NIC can push in.
  const double line_pps = units::gbps_to_pps(spec_.line_rate_gbps, pkt_bytes);
  const double absorption = dma_.absorption(res.dma_bytes, pkt_bytes,
                                            DmaModel::kDefaultPollIntervalS);
  const double input_cap_pps = line_pps * absorption;
  out.service_pps = std::min(cpu_pps, input_cap_pps);
  return out;
}

ChainEvaluation CostModel::evaluate_load(const ChainCapacity& cap,
                                         const ChainWorkload& load,
                                         const ChainResources& res) const {
  ChainEvaluation out;
  out.cycles_per_pkt = cap.cycles_per_pkt;
  out.misses_per_pkt = cap.misses_per_pkt;
  out.miss_ratio = cap.miss_ratio;
  out.ddio_hit = cap.ddio_hit;
  out.working_set_bytes = cap.working_set_bytes;
  out.service_pps = cap.service_pps;

  // --- goodput / drops -----------------------------------------------------
  const double offered = std::max(load.offered_pps, 0.0);
  if (offered <= out.service_pps) {
    out.goodput_pps = offered;
  } else if (out.service_pps > 0.0) {
    // Receive livelock: past saturation, cycles wasted on to-be-dropped
    // packets depress goodput superlinearly, down to a floor where early
    // RX drops stop costing full processing.
    const double ratio = out.service_pps / offered;
    const double collapse =
        std::max(spec_.livelock_floor, std::pow(ratio, spec_.livelock_beta));
    out.goodput_pps = out.service_pps * collapse;
  }
  out.drop_pps = std::max(0.0, offered - out.goodput_pps);
  out.throughput_gbps = units::pps_to_gbps(out.goodput_pps, load.pkt_bytes);
  out.wire_gbps =
      out.goodput_pps * units::wire_bits_per_frame(load.pkt_bytes) /
      units::kGiga;

  // --- CPU occupancy ---------------------------------------------------------
  out.capacity_utilization =
      out.service_pps > 0.0
          ? math_util::clamp(offered / out.service_pps, 0.0, 1.0)
          : 0.0;
  const double duty =
      res.poll_mode
          ? 1.0
          : std::max(spec_.min_poll_duty, out.capacity_utilization);
  out.busy_cores = res.cores * duty;

  // --- latency ----------------------------------------------------------------
  if (out.service_pps > 0.0) {
    // Service: one packet's processing time through the chain.
    const double service_s =
        out.cycles_per_pkt / units::ghz_to_hz(res.freq_ghz);
    // Batch assembly: on average half a batch accumulates before the poll
    // fires (bounded by the poll interval when traffic is slow).
    const double arrival = std::max(offered, 1.0);
    const double assembly_s =
        std::min(0.5 * static_cast<double>(res.batch) / arrival,
                 DmaModel::kDefaultPollIntervalS * 4.0);
    // Queueing: M/M/1 sojourn grows as utilization approaches 1; capped at
    // the backlog a full descriptor ring represents (tail drop beyond).
    const double rho = math_util::clamp(
        offered / out.service_pps, 0.0, 0.995);
    const double queueing_s = (1.0 / out.service_pps) * rho / (1.0 - rho);
    const double ring_bound_s =
        static_cast<double>(res.dma_bytes / DmaModel::kMbufBytes) /
        out.service_pps;
    out.mean_latency_us =
        (service_s + assembly_s + std::min(queueing_s, ring_bound_s)) * 1e6;
  }

  return out;
}

}  // namespace greennfv::hwmodel
