#include "hwmodel/node.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

/// A NodeEvaluation buffer handed back to NodeModel::evaluate reuses each
/// chain's capacity, frequency scale and power shape, and the manager's
/// frequency scale and power shape, whenever their inputs are bit-equal
/// to the ones it kept under the same model. These
/// suites drive one buffer through seeded random deployment sequences and
/// compare every field, bit for bit, with a fresh evaluation of the same
/// deployment. Each step changes one input at a time, so a term kept
/// without one of its inputs in its key shows up as a stale field.

namespace greennfv::hwmodel {
namespace {

std::string hex(double x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
  return buf;
}

/// Every field of `e`, as bit patterns.
std::string fields(const NodeEvaluation& e) {
  std::string text = hex(e.utilization) + " " + hex(e.allocated_cores) +
                     " " + hex(e.power_w) + " " + hex(e.total_goodput_gbps) +
                     " " + hex(e.total_offered_gbps) + " " +
                     hex(e.total_goodput_pps) + " " + hex(e.total_drop_pps);
  for (const ChainReport& c : e.chains) {
    const ChainEvaluation& v = c.eval;
    text += "\n";
    for (const double x :
         {v.cycles_per_pkt, v.service_pps, v.goodput_pps, v.drop_pps,
          v.throughput_gbps, v.wire_gbps, v.miss_ratio, v.misses_per_pkt,
          v.ddio_hit, v.busy_cores, v.capacity_utilization,
          v.mean_latency_us, c.power_w, c.energy_per_mpkt_j}) {
      text += hex(x) + " ";
    }
    text += std::to_string(v.working_set_bytes) + " " +
            std::to_string(c.llc_bytes);
  }
  return text;
}

const std::vector<std::string> kNfs = nf_catalog::names();

NfCostProfile random_nf(Rng& rng) {
  return nf_catalog::by_name(kNfs[rng.uniform_u64(kNfs.size())]);
}

std::uint32_t random_frame(Rng& rng) {
  return static_cast<std::uint32_t>(rng.uniform_int(64, 1518));
}

ChainDeployment random_chain(const NodeSpec& spec, Rng& rng) {
  ChainDeployment dep;
  const auto length = rng.uniform_int(1, 4);
  for (int k = 0; k < length; ++k) dep.nfs.push_back(random_nf(rng));
  dep.workload.offered_pps = rng.uniform(0.05, 2.5) * 1e6;
  dep.workload.pkt_bytes = random_frame(rng);
  dep.cores = rng.uniform(0.25, 4.0);
  const auto ladder = spec.frequency_ladder_ghz();
  dep.freq_ghz = ladder[rng.uniform_u64(ladder.size())];
  dep.llc_fraction = rng.uniform(0.02, 1.0);
  dep.dma_bytes = (1 + rng.uniform_u64(64)) * 256 * units::kKiB;
  dep.batch = static_cast<std::uint32_t>(rng.uniform_int(1, 256));
  dep.poll_mode = rng.uniform() < 0.5;
  return dep;
}

/// One NF cost field of one NF, nudged: the other three stay as they were.
void nudge_nf_field(ChainDeployment& dep, Rng& rng) {
  NfCostProfile& nf = dep.nfs[rng.uniform_u64(dep.nfs.size())];
  switch (rng.uniform_u64(4)) {
    case 0: nf.base_cycles += 1.0; break;
    case 1: nf.cycles_per_byte += 0.125; break;
    case 2: nf.mem_refs_per_pkt += 1.0; break;
    default: nf.state_bytes += units::kMiB; break;
  }
}

struct Node {
  std::vector<ChainDeployment> chains;
  bool use_cat = true;
};

/// Applies one random change to `node` and says whether it was one that
/// leaves every chain's capacity inputs as they were.
bool mutate(Node& node, const NodeSpec& spec, Rng& rng) {
  ChainDeployment& dep = node.chains[rng.uniform_u64(node.chains.size())];
  switch (rng.uniform_u64(16)) {
    case 0:
    case 1:
    case 2:
      return true;  // an identical repeat
    case 3: dep.workload.offered_pps = rng.uniform(0.05, 2.5) * 1e6; return true;
    case 4: dep.poll_mode = !dep.poll_mode; return true;
    case 5: dep.cores = rng.uniform(0.25, 4.0); return false;
    case 6: {
      const auto ladder = spec.frequency_ladder_ghz();
      dep.freq_ghz = ladder[rng.uniform_u64(ladder.size())];
      return false;
    }
    case 7: dep.llc_fraction = rng.uniform(0.02, 1.0); return false;
    case 8: dep.dma_bytes = (1 + rng.uniform_u64(64)) * 256 * units::kKiB; return false;
    case 9: dep.batch = static_cast<std::uint32_t>(rng.uniform_int(1, 256)); return false;
    case 10: dep.workload.pkt_bytes = random_frame(rng); return false;
    case 11:  // a same-length swap of one slot
      dep.nfs[rng.uniform_u64(dep.nfs.size())] = random_nf(rng);
      return false;
    case 12: nudge_nf_field(dep, rng); return false;
    case 13:
      if (dep.nfs.size() < 4 && (dep.nfs.size() == 1 || rng.uniform() < 0.5)) {
        dep.nfs.push_back(random_nf(rng));
      } else {
        dep.nfs.pop_back();
      }
      return false;
    case 14:
      if (node.chains.size() < 8 &&
          (node.chains.size() == 1 || rng.uniform() < 0.5)) {
        node.chains.push_back(random_chain(spec, rng));
      } else {
        node.chains.erase(node.chains.begin() + static_cast<std::ptrdiff_t>(
                              rng.uniform_u64(node.chains.size())));
      }
      return false;
    default: node.use_cat = !node.use_cat; return false;
  }
}

TEST(NodeReuse, KeptBufferMatchesFreshEvaluationsBitForBit) {
  NodeSpec other;
  other.mem_latency_ns = 110.0;
  other.llc_bytes = 30ull * units::kMiB;
  other.llc_ways = 15;
  other.p_max_w = 280.0;
  other.fmax_ghz = 2.4;
  other.fan_h = 1.6;
  other.static_fraction = 0.2;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    NodeModel model;
    const NodeModel other_model(other);
    Node node;
    for (int c = 0, n = static_cast<int>(rng.uniform_int(1, 8)); c < n; ++c)
      node.chains.push_back(random_chain(model.spec(), rng));

    NodeEvaluation kept;
    long long recomputed = 0;
    long long evaluated = 0;
    const NodeModel* current = &model;
    for (int step = 0; step < 600; ++step) {
      SCOPED_TRACE(step);
      bool same_capacity_inputs = mutate(node, current->spec(), rng);
      if (step % 150 == 149) {
        // Another spec under the kept buffer.
        current = current == &model ? &other_model : &model;
        same_capacity_inputs = false;
      }
      current->evaluate(node.chains, node.use_cat, kept);
      ASSERT_EQ(fields(kept),
                fields(current->evaluate(node.chains, node.use_cat)));
      if (same_capacity_inputs) {
        ASSERT_EQ(kept.capacity_evals, 0);
      }
      recomputed += kept.capacity_evals;
      evaluated += static_cast<long long>(node.chains.size());
    }
    EXPECT_LT(recomputed, evaluated / 2);
  }
}

/// Two chains where the first gets one LLC way with CAT on and, through
/// its tiny share of the demand, one way's worth without: only the
/// shared-LLC flag of its capacity inputs tells the modes apart.
std::vector<ChainDeployment> one_way_either_way() {
  ChainDeployment small;
  small.nfs = {nf_catalog::firewall()};
  small.workload = {0.3e6, 256};
  small.llc_fraction = 0.02;
  small.batch = 1;
  ChainDeployment big;
  big.nfs = {nf_catalog::ids(), nf_catalog::epc(), nf_catalog::router()};
  big.workload = {0.4e6, 1024};
  big.llc_fraction = 1.0;
  big.batch = 256;
  return {small, big};
}

TEST(NodeReuse, EachCapacityInputInvalidatesOnItsOwn) {
  using Change = std::function<void(std::vector<ChainDeployment>&, bool&)>;
  const std::vector<std::pair<const char*, Change>> changes = {
      {"cores", [](auto& d, bool&) { d[0].cores = 1.5; }},
      {"freq_ghz", [](auto& d, bool&) { d[0].freq_ghz = 1.6; }},
      // CAT turns it into the first chain's llc_bytes; without CAT it is
      // no input at all.
      {"llc_fraction", [](auto& d, bool&) { d[0].llc_fraction = 0.5; }},
      {"dma_bytes", [](auto& d, bool&) { d[0].dma_bytes = 8 * units::kMiB; }},
      {"batch", [](auto& d, bool&) { d[0].batch = 64; }},
      {"pkt_bytes", [](auto& d, bool&) { d[0].workload.pkt_bytes = 1518; }},
      {"nf swap", [](auto& d, bool&) { d[1].nfs[1] = nf_catalog::nat(); }},
      {"nf appended",
       [](auto& d, bool&) { d[0].nfs.push_back(nf_catalog::nat()); }},
      {"base_cycles", [](auto& d, bool&) { d[0].nfs[0].base_cycles += 1.0; }},
      {"cycles_per_byte",
       [](auto& d, bool&) { d[0].nfs[0].cycles_per_byte += 0.5; }},
      {"mem_refs_per_pkt",
       [](auto& d, bool&) { d[0].nfs[0].mem_refs_per_pkt += 1.0; }},
      {"state_bytes",
       [](auto& d, bool&) { d[0].nfs[0].state_bytes += units::kKiB; }},
      {"shared_llc", [](auto&, bool& use_cat) { use_cat = !use_cat; }},
  };
  const NodeModel model;
  for (const auto& [name, change] : changes) {
    for (const bool cat : {true, false}) {
      SCOPED_TRACE(testing::Message() << name << " cat=" << cat);
      std::vector<ChainDeployment> chains = one_way_either_way();
      NodeEvaluation kept;
      model.evaluate(chains, cat, kept);
      model.evaluate(chains, cat, kept);
      ASSERT_EQ(kept.capacity_evals, 0);
      bool use_cat = cat;
      change(chains, use_cat);
      model.evaluate(chains, use_cat, kept);
      const NodeEvaluation fresh = model.evaluate(chains, use_cat);
      EXPECT_EQ(fields(kept), fields(fresh));
      EXPECT_EQ(kept.capacity_evals == 0,
                !cat && std::string(name) == "llc_fraction");
    }
  }
  // The shared-LLC case above reaches capacity only through that flag.
  const std::vector<ChainDeployment> chains = one_way_either_way();
  EXPECT_EQ(model.evaluate(chains, true).chains[0].llc_bytes,
            model.evaluate(chains, false).chains[0].llc_bytes);
}

TEST(NodeReuse, AnotherSpecUnderAKeptBufferRecomputesEveryTerm) {
  // Light hybrid load: every core group and the manager sit at the same
  // minimum duty under both specs, so only the spec tells the power
  // shapes and frequency scales apart.
  NodeSpec other;
  other.fan_h = 1.7;
  other.static_fraction = 0.3;
  other.freq_power_exponent = 2.5;
  other.mem_latency_ns = 95.0;
  const NodeModel model;
  const NodeModel other_model(other);
  std::vector<ChainDeployment> chains = one_way_either_way();
  for (ChainDeployment& dep : chains) {
    dep.workload.offered_pps = 1e3;
    dep.freq_ghz = 1.8;
  }
  NodeEvaluation kept;
  model.evaluate(chains, true, kept);
  other_model.evaluate(chains, true, kept);
  EXPECT_EQ(kept.capacity_evals, 2);
  EXPECT_EQ(fields(kept), fields(other_model.evaluate(chains, true)));
  model.evaluate(chains, true, kept);
  EXPECT_EQ(fields(kept), fields(model.evaluate(chains, true)));
}

TEST(NodeReuse, SignedZeroAndNanInputsNeverAlias) {
  // +0.0 and -0.0 compare equal, and a NaN compares unequal to itself:
  // keys compare bit patterns instead, so the capacity a -0.0 input kept is
  // not reused for +0.0, and a repeated NaN reuses its own.
  const NodeModel model;
  std::vector<ChainDeployment> chains = one_way_either_way();
  chains[0].nfs[0].cycles_per_byte = -0.0;
  NodeEvaluation kept;
  model.evaluate(chains, true, kept);
  chains[0].nfs[0].cycles_per_byte = 0.0;
  model.evaluate(chains, true, kept);
  EXPECT_EQ(kept.capacity_evals, 1);
  chains[0].nfs[0].base_cycles = std::numeric_limits<double>::quiet_NaN();
  model.evaluate(chains, true, kept);
  EXPECT_EQ(kept.capacity_evals, 1);
  model.evaluate(chains, true, kept);
  EXPECT_EQ(kept.capacity_evals, 0);
}

TEST(NodeReuse, ForgetReuseRecomputesEveryCapacity) {
  const NodeModel model;
  const std::vector<ChainDeployment> chains = one_way_either_way();
  NodeEvaluation kept;
  model.evaluate(chains, true, kept);
  EXPECT_EQ(kept.capacity_evals, 2);
  model.evaluate(chains, true, kept);
  EXPECT_EQ(kept.capacity_evals, 0);
  kept.forget_reuse();
  model.evaluate(chains, true, kept);
  EXPECT_EQ(kept.capacity_evals, 2);
  EXPECT_EQ(fields(kept), fields(model.evaluate(chains, true)));
}

}  // namespace
}  // namespace greennfv::hwmodel
