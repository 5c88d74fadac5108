#include "hwmodel/node.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace greennfv::hwmodel {

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Model ids start at 1: a buffer that holds no terms carries 0.
std::uint64_t next_model_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// `memo`'s value when it came from `x`'s bit pattern, else f(x), kept.
/// (A NodeEvaluation::TermMemo, whose name only NodeModel may spell.)
template <class Memo, class F>
double reuse(Memo& memo, double x, F f) {
  if (!memo.valid || memo.input != bits(x)) {
    memo.value = f(x);
    memo.input = bits(x);
    memo.valid = true;
  }
  return memo.value;
}

}  // namespace

void NodeEvaluation::forget_reuse() {
  for (ChainMemo& memo : memo_) {
    memo.has_capacity = false;
    memo.frequency_scale.valid = false;
    memo.shape.valid = false;
  }
  manager_scale_.valid = false;
  manager_shape_.valid = false;
  model_ = 0;
}

bool NodeEvaluation::ChainMemo::holds(
    const std::vector<NfCostProfile>& chain_nfs, std::uint32_t frame,
    const ChainResources& res) const {
  if (!has_capacity || frame != pkt_bytes || res.batch != batch ||
      bits(res.cores) != cores || bits(res.freq_ghz) != freq_ghz ||
      res.llc_bytes != llc_bytes || res.dma_bytes != dma_bytes ||
      res.shared_llc != shared_llc || chain_nfs.size() != nfs.size()) {
    return false;
  }
  for (std::size_t k = 0; k < nfs.size(); ++k) {
    const NfCostProfile& nf = chain_nfs[k];
    if (nfs[k] != std::array{bits(nf.base_cycles), bits(nf.cycles_per_byte),
                             bits(nf.mem_refs_per_pkt), nf.state_bytes}) {
      return false;
    }
  }
  return true;
}

void NodeEvaluation::ChainMemo::keep(
    const std::vector<NfCostProfile>& chain_nfs, std::uint32_t frame,
    const ChainResources& res) {
  nfs.resize(chain_nfs.size());
  for (std::size_t k = 0; k < nfs.size(); ++k) {
    const NfCostProfile& nf = chain_nfs[k];
    nfs[k] = {bits(nf.base_cycles), bits(nf.cycles_per_byte),
              bits(nf.mem_refs_per_pkt), nf.state_bytes};
  }
  pkt_bytes = frame;
  batch = res.batch;
  cores = bits(res.cores);
  freq_ghz = bits(res.freq_ghz);
  llc_bytes = res.llc_bytes;
  dma_bytes = res.dma_bytes;
  shared_llc = res.shared_llc;
  has_capacity = true;
}

NodeModel::NodeModel(const NodeSpec& spec)
    : spec_(spec), cost_(spec), power_(spec), id_(next_model_id()) {}

double NodeModel::frequency_scale(NodeEvaluation::TermMemo& memo,
                                  double freq_ghz) const {
  return reuse(memo, freq_ghz,
               [&](double f) { return power_.frequency_scale(f); });
}

double NodeModel::shape(NodeEvaluation::TermMemo& memo, double u) const {
  return reuse(memo, u, [&](double x) {
    return 2.0 * x - std::pow(x, spec_.fan_h);
  });
}

NodeEvaluation NodeModel::evaluate(const std::vector<ChainDeployment>& chains,
                                   bool use_cat) const {
  NodeEvaluation out;
  evaluate(chains, use_cat, out);
  return out;
}

void NodeModel::evaluate(const std::vector<ChainDeployment>& chains,
                         bool use_cat, NodeEvaluation& out) const {
  GNFV_REQUIRE(!chains.empty(), "NodeModel::evaluate: no chains");
  // Terms another model kept came from another spec.
  if (out.model_ != id_) {
    out.forget_reuse();
    out.model_ = id_;
  }
  // Every per-chain field is written below before it is read; the totals
  // accumulate from zero.
  out.chains.resize(chains.size());
  out.memo_.resize(chains.size());
  out.capacity_evals = 0;
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
      const CacheDemand d = cost_.demand_of(
          chains[i].nfs, chains[i].workload.pkt_bytes, res);
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
    NodeEvaluation::ChainMemo& memo = out.memo_[i];
    if (!memo.holds(chain.nfs, chain.workload.pkt_bytes, res)) {
      memo.capacity =
          cost_.capacity(chain.nfs, chain.workload.pkt_bytes, res);
      memo.keep(chain.nfs, chain.workload.pkt_bytes, res);
      ++out.capacity_evals;
    }
    report.eval = cost_.evaluate_load(memo.capacity, chain.workload, res);

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
    const double weight =
        math_util::clamp(chain.cores / spec_.total_cores, 0.0, 1.0);
    const double group_dyn =
        delta_p * frequency_scale(memo.frequency_scale, chain.freq_ghz) *
        shape(memo.shape, group_u) * weight;
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
    dynamic_w += delta_p * frequency_scale(out.manager_scale_, mgr_freq) *
                 shape(out.manager_shape_, mgr_u) *
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
