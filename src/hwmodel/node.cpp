#include "hwmodel/node.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace greennfv::hwmodel {

NodeModel::NodeModel(const NodeSpec& spec)
    : spec_(spec), cost_(spec), power_(spec) {}

NodeEvaluation NodeModel::evaluate(const std::vector<ChainDeployment>& chains,
                                   bool use_cat) const {
  NodeEvaluation out;
  evaluate(chains, use_cat, out);
  return out;
}

void NodeModel::evaluate(const std::vector<ChainDeployment>& chains,
                         bool use_cat, NodeEvaluation& out) const {
  GNFV_REQUIRE(!chains.empty(), "NodeModel::evaluate: no chains");
  // Every per-chain field is written below before it is read; the totals
  // accumulate from zero.
  out.chains.resize(chains.size());
  out.utilization = 0.0;
  out.allocated_cores = 0.0;
  out.power_w = 0.0;
  out.total_goodput_gbps = 0.0;
  out.total_offered_gbps = 0.0;
  out.total_goodput_pps = 0.0;
  out.total_drop_pps = 0.0;

  // --- resolve LLC allocations ------------------------------------------------
  if (use_cat) {
    // More classes than a CBM has ways is what apportion_ways rejects;
    // checked first so the stack buffers below always fit.
    if (chains.size() > static_cast<std::size_t>(kMaxLlcWays))
      throw std::invalid_argument("CAT: more classes than ways");
    std::array<double, kMaxLlcWays> fractions;
    std::array<int, kMaxLlcWays> ways;
    for (std::size_t i = 0; i < chains.size(); ++i)
      fractions[i] = std::max(chains[i].llc_fraction, 1e-3);
    apportion_ways(std::span(fractions.data(), chains.size()),
                   spec_.llc_ways - spec_.ddio_ways,
                   std::span(ways.data(), chains.size()));
    for (std::size_t i = 0; i < chains.size(); ++i) {
      out.chains[i].llc_bytes =
          static_cast<std::uint64_t>(ways[i]) * spec_.bytes_per_way();
    }
  } else {
    // Unpartitioned LLC: chains get demand-proportional contended shares.
    // Each chain's demand in bytes waits in its llc_bytes until the total
    // is known.
    double total_demand = 0.0;
    for (std::size_t i = 0; i < chains.size(); ++i) {
      ChainResources res;
      res.batch = chains[i].batch;
      res.dma_bytes = chains[i].dma_bytes;
      const CacheDemand d =
          cost_.demand_of(chains[i].nfs, chains[i].workload, res);
      out.chains[i].llc_bytes = d.state_bytes + d.packet_window_bytes;
      total_demand += static_cast<double>(out.chains[i].llc_bytes);
    }
    for (auto& report : out.chains) {
      const double share =
          total_demand > 0.0
              ? static_cast<double>(report.llc_bytes) / total_demand
              : 1.0;
      report.llc_bytes = cost_.cache().contended_share(share);
    }
  }

  // --- evaluate chains ----------------------------------------------------------
  double busy_total = 0.0;
  double dynamic_w = 0.0;
  const double delta_p = spec_.p_max_w - spec_.p_idle_w;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const auto& chain = chains[i];
    ChainResources res;
    res.cores = chain.cores;
    res.freq_ghz = chain.freq_ghz;
    res.llc_bytes = out.chains[i].llc_bytes;
    res.dma_bytes = chain.dma_bytes;
    res.batch = chain.batch;
    res.poll_mode = chain.poll_mode;
    res.shared_llc = !use_cat;

    ChainReport& report = out.chains[i];
    report.eval = cost_.evaluate_chain(chain.nfs, chain.workload, res);

    out.allocated_cores += chain.cores;
    busy_total += report.eval.busy_cores;
    out.total_goodput_gbps += report.eval.throughput_gbps;
    out.total_goodput_pps += report.eval.goodput_pps;
    out.total_drop_pps += report.eval.drop_pps;
    out.total_offered_gbps += units::pps_to_gbps(
        chain.workload.offered_pps, chain.workload.pkt_bytes);

    // Per-chain dynamic power: Eq. 4's shape on the chain's own core group,
    // weighted by its slice of the machine and its DVFS point. Summing the
    // groups reduces exactly to Eq. 4 when one chain owns every core.
    const double group_u = chain.cores > 0.0
                               ? math_util::clamp(
                                     report.eval.busy_cores / chain.cores,
                                     0.0, 1.0)
                               : 0.0;
    const double shape =
        2.0 * group_u - std::pow(group_u, spec_.fan_h);
    const double weight =
        math_util::clamp(chain.cores / spec_.total_cores, 0.0, 1.0);
    const double group_dyn = delta_p *
                             power_.frequency_scale(chain.freq_ghz) * shape *
                             weight;
    report.power_w = group_dyn;  // idle share added below
    dynamic_w += group_dyn;
  }

  // --- NIC aggregate cap -----------------------------------------------------
  // All chains share one port; if their combined wire rate exceeds line
  // rate, the NIC scales everyone back proportionally.
  double wire_total = 0.0;
  for (const auto& report : out.chains) wire_total += report.eval.wire_gbps;
  if (wire_total > spec_.line_rate_gbps) {
    const double scale = spec_.line_rate_gbps / wire_total;
    out.total_goodput_gbps = 0.0;
    out.total_goodput_pps = 0.0;
    for (auto& report : out.chains) {
      ChainEvaluation& ev = report.eval;
      const double cut = ev.goodput_pps * (1.0 - scale);
      ev.goodput_pps *= scale;
      ev.throughput_gbps *= scale;
      ev.wire_gbps *= scale;
      ev.drop_pps += cut;
      out.total_goodput_gbps += ev.throughput_gbps;
      out.total_goodput_pps += ev.goodput_pps;
      out.total_drop_pps += cut;
    }
  }

  // --- manager overhead ----------------------------------------------------
  // The ONVM controller's RX/TX threads occupy dedicated cores; they poll
  // whenever any chain does, otherwise they duty-cycle with overall load,
  // and they run at the (core-weighted) frequency of the chains they serve.
  bool any_poll = false;
  double max_cap_util = 0.0;
  double freq_weighted = 0.0;
  double core_weight = 0.0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    any_poll = any_poll || chains[i].poll_mode;
    max_cap_util =
        std::max(max_cap_util, out.chains[i].eval.capacity_utilization);
    freq_weighted += chains[i].freq_ghz * chains[i].cores;
    core_weight += chains[i].cores;
  }
  const double mgr_freq =
      core_weight > 0.0 ? freq_weighted / core_weight : spec_.fmax_ghz;
  const double mgr_duty =
      any_poll ? 1.0 : std::max(spec_.min_poll_duty, max_cap_util);
  const double mgr_busy = spec_.controller_cores * mgr_duty;
  busy_total += mgr_busy;
  out.allocated_cores += spec_.controller_cores;
  {
    const double mgr_u = math_util::clamp(mgr_duty, 0.0, 1.0);
    const double mgr_shape = 2.0 * mgr_u - std::pow(mgr_u, spec_.fan_h);
    dynamic_w += delta_p * power_.frequency_scale(mgr_freq) * mgr_shape *
                 math_util::clamp(
                     spec_.controller_cores / spec_.total_cores, 0.0, 1.0);
  }

  out.utilization = math_util::clamp(
      busy_total / static_cast<double>(spec_.total_cores), 0.0, 1.0);
  out.power_w = spec_.p_idle_w + dynamic_w;

  // Attribute idle power by allocated-core share so per-chain J/Mpkt is
  // meaningful even for lightly loaded chains.
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const double alloc_share =
        out.allocated_cores > 0.0 ? chains[i].cores / out.allocated_cores
                                  : 1.0 / static_cast<double>(chains.size());
    out.chains[i].power_w += spec_.p_idle_w * alloc_share;
    const double mpps = out.chains[i].eval.goodput_pps / units::kMega;
    out.chains[i].energy_per_mpkt_j =
        mpps > 1e-9 ? out.chains[i].power_w / mpps : 0.0;
  }
}

}  // namespace greennfv::hwmodel
