#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

/// \file node_spec.hpp
/// Static description of one NFV host. Defaults mirror the paper's testbed:
/// Intel Xeon E5-2620 v4 (16 cores across two sockets, DVFS 1.2-2.1 GHz,
/// 20 MB / 20-way LLC with ~10% reserved for DDIO), 64 GB RAM, and a
/// 10 GbE Intel X540-AT2 NIC. Power constants follow the Fan-Weber-Barroso
/// model the paper adopts (Eq. 4), with the calibration parameter `h`
/// fitted the same way the authors fit against their Yokogawa WT210 meter
/// (see hwmodel/calibration.hpp).

namespace greennfv::hwmodel {

struct NodeSpec {
  // --- CPU ---------------------------------------------------------------
  int total_cores = 16;
  double fmin_ghz = 1.2;
  double fmax_ghz = 2.1;
  double fstep_ghz = 0.1;

  // --- Memory hierarchy ----------------------------------------------------
  std::uint64_t llc_bytes = 20ull * units::kMiB;
  int llc_ways = 20;
  /// Ways reserved for Data Direct I/O (Intel DDIO dedicates ~10% of LLC
  /// to inbound DMA).
  int ddio_ways = 2;
  /// DRAM access latency. Constant in *time*; the cycle cost therefore
  /// scales with core frequency, which is what makes high frequencies pay
  /// diminishing returns on memory-bound NFs (paper Fig. 2's non-linearity).
  double mem_latency_ns = 85.0;
  /// Cache line size used to convert packet bytes to memory references.
  std::uint32_t cache_line_bytes = 64;

  // --- NIC -----------------------------------------------------------------
  double line_rate_gbps = 10.0;
  /// Per-port hardware descriptor ring limit for the DMA buffer knob.
  double max_dma_buffer_mib = 48.0;

  // --- Power (Eq. 4 of the paper) -------------------------------------------
  double p_idle_w = 60.0;
  double p_max_w = 330.0;
  /// Draw while power-gated (suspend-to-RAM keeps the BMC + DIMM refresh
  /// alive — single-digit watts on server hardware). Only the fleet
  /// orchestrator's node power-state machine uses this; a node hosting
  /// chains never sleeps.
  double p_sleep_w = 8.0;
  /// Resume latency out of the sleep state. Charged as downtime against
  /// the chain whose placement woke the node (SLA accounting), plus
  /// p_idle_w draw for the duration.
  double wake_latency_s = 3.0;
  /// Fan-model calibration parameter `h` (paper fits it against a Yokogawa
  /// WT210; we fit it against the synthetic meter in calibration.cpp).
  double fan_h = 1.4;
  /// Fraction of dynamic power that does not scale with frequency
  /// (uncore, leakage).
  double static_fraction = 0.10;
  /// Exponent of the frequency term of dynamic power (f * V^2 with voltage
  /// roughly linear in f gives ~3).
  double freq_power_exponent = 3.0;

  // --- Software-path constants ----------------------------------------------
  /// Fixed cycles for one ring hop (enqueue+dequeue bookkeeping, amortizable
  /// part excluded).
  double hop_cycles = 60.0;
  /// Per-wakeup cost (NF scheduling, IPC, call, cache warmup) amortized
  /// over a batch. ONVM hands packets between processes, so this is large —
  /// the lever behind the paper's Fig. 3 batching win and a main reason the
  /// untuned batch=2 baseline underperforms.
  double per_call_cycles = 4000.0;
  /// Goodput floor under overload: livelock cannot push goodput below this
  /// fraction of the service rate (RX drops early and cheaply).
  double livelock_floor = 0.3;
  /// Compulsory LLC miss floor and contention ceiling for the miss model.
  double miss_floor = 0.02;
  double miss_ceiling = 0.85;
  /// Extra miss ratio suffered when the LLC is *unpartitioned* and several
  /// chains (plus the OS) conflict in it — the effect CAT removes and the
  /// paper's Fig. 1 measures.
  double contention_miss = 0.22;
  /// Cores burned by the ONVM manager's RX/TX threads ("running on a
  /// dedicated core" per §4.4).
  double controller_cores = 2.0;
  /// Receive-livelock exponent: goodput = service * (service/offered)^beta
  /// under overload (Mogul & Ramakrishnan-style collapse).
  double livelock_beta = 1.4;
  /// Fraction of packet cache lines actually touched by a typical NF.
  double pkt_touch_fraction = 0.5;
  /// Of the packet lines that spilled past DDIO to DRAM, the fraction whose
  /// read actually stalls the core (hardware prefetchers cover the rest of
  /// the sequential packet read).
  double ddio_spill_touch = 0.25;
  /// Multiplier converting batch*pkt_bytes to LLC working-set footprint
  /// (packet data + mbuf metadata + stack).
  double batch_footprint_factor = 2.0;
  /// Minimum polling duty cycle in hybrid (callback+poll) mode; pure
  /// poll-mode drivers burn 100% duty regardless of load. Wakeup latency,
  /// timer ticks, and cache re-warming keep residency well above zero even
  /// on idle queues.
  double min_poll_duty = 0.25;

  /// Returns the DVFS ladder {fmin, fmin+step, ..., fmax}. Entries are
  /// rounded to 1 MHz so repeated float addition cannot push the top step
  /// past fmax.
  [[nodiscard]] std::vector<double> frequency_ladder_ghz() const {
    std::vector<double> ladder;
    const int steps =
        static_cast<int>((fmax_ghz - fmin_ghz) / fstep_ghz + 0.5);
    for (int i = 0; i <= steps; ++i) {
      const double f = fmin_ghz + i * fstep_ghz;
      ladder.push_back(static_cast<double>(static_cast<long long>(
                           f * 1000.0 + 0.5)) /
                       1000.0);
    }
    return ladder;
  }

  [[nodiscard]] std::uint64_t bytes_per_way() const {
    return llc_bytes / static_cast<std::uint64_t>(llc_ways);
  }

  [[nodiscard]] std::uint64_t ddio_bytes() const {
    return bytes_per_way() * static_cast<std::uint64_t>(ddio_ways);
  }

  /// LLC capacity available to CAT classes (total minus the DDIO ways).
  [[nodiscard]] std::uint64_t allocatable_llc_bytes() const {
    return llc_bytes - ddio_bytes();
  }

  bool operator==(const NodeSpec&) const = default;
};

}  // namespace greennfv::hwmodel
