#pragma once

#include <span>
#include <vector>

#include "hwmodel/node_spec.hpp"
#include "nfvsim/engine_analytic.hpp"
#include "nfvsim/knobs.hpp"

/// \file spaces.hpp
/// The paper's state and action spaces (§4.3.1):
///
///   X_i = { T_i, E_i, ξ_i, Ω_i }   (Eq. 8) — throughput, energy,
///                                   CPU utilization, packet arrival rate
///   A_i = { c_i, cf_i, llc_i, b_i, bs_i }  (Eq. 7) — CPU cores, CPU
///                                   frequency, LLC share, DMA buffer,
///                                   batch size
///
/// Both are flattened over chains and normalized to [-1, 1] for the DDPG
/// networks. The codecs own the scaling constants so every agent (DDPG,
/// Q-learning) and every baseline sees identical geometry.

namespace greennfv::core {

/// Per-chain observation in engineering units.
struct ChainObservation {
  double throughput_gbps = 0.0;  ///< T_i
  double energy_j = 0.0;         ///< E_i (attributed, last control window)
  double busy_cores = 0.0;       ///< ξ_i (1.0 == 100% of one core)
  double arrival_pps = 0.0;      ///< Ω_i
};

class StateCodec {
 public:
  StateCodec(const hwmodel::NodeSpec& spec, std::size_t num_chains,
             double window_s);

  [[nodiscard]] std::size_t num_chains() const { return num_chains_; }
  [[nodiscard]] std::size_t state_dim() const { return 4 * num_chains_; }

  /// Flattens and normalizes per-chain observations to [-1,1]^state_dim.
  [[nodiscard]] std::vector<double> encode(
      const std::vector<ChainObservation>& obs) const;

  /// Writes observations straight from an engine run summary into `obs`,
  /// one per chain, reusing its buffer.
  static void observe(const nfvsim::AnalyticEngine::RunSummary& summary,
                      std::vector<ChainObservation>& obs);

 private:
  std::size_t num_chains_;
  double max_gbps_;
  double max_energy_j_;
  double max_cores_;
  double max_pps_;
};

class ActionCodec {
 public:
  ActionCodec(const hwmodel::NodeSpec& spec, std::size_t num_chains);

  [[nodiscard]] std::size_t num_chains() const { return num_chains_; }
  [[nodiscard]] std::size_t action_dim() const { return 5 * num_chains_; }

  /// Decodes a normalized action in [-1,1]^action_dim into per-chain knob
  /// settings (clamped to hardware limits).
  [[nodiscard]] std::vector<nfvsim::ChainKnobs> decode(
      std::span<const double> action) const;

  /// Encodes knob settings back to normalized coordinates (round-trip
  /// inverse of decode up to clamping/rounding; used by tests and by
  /// warm-starting from a known configuration).
  [[nodiscard]] std::vector<double> encode(
      const std::vector<nfvsim::ChainKnobs>& knobs) const;

 private:
  hwmodel::NodeSpec spec_;
  std::size_t num_chains_;
  double min_dma_mib_;
  double max_dma_mib_;
};

}  // namespace greennfv::core
