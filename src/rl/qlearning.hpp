#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

/// \file qlearning.hpp
/// Tabular Q-learning (Watkins & Dayan '92) over uniformly discretized
/// state and action spaces — the paper's Q-learning comparison model. The
/// paper's point (§4.3) is exactly this model's weakness: with k levels per
/// knob the action table grows O(k^5), so fine-tuning is impossible; Fig. 9
/// quantifies the resulting throughput gap against DDPG.

namespace greennfv::rl {

/// Uniform discretizer over [-1,1]^dim with `levels` bins per dimension.
class Discretizer {
 public:
  Discretizer(std::size_t dim, int levels);

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] int levels() const { return levels_; }

  /// Number of distinct cells = levels^dim (must fit in 64 bits).
  [[nodiscard]] std::uint64_t num_cells() const { return num_cells_; }

  /// Cell index of a point in [-1,1]^dim.
  [[nodiscard]] std::uint64_t encode(std::span<const double> point) const;

  /// Cell-center coordinates of a cell index.
  [[nodiscard]] std::vector<double> decode(std::uint64_t cell) const;

 private:
  std::size_t dim_;
  int levels_;
  std::uint64_t num_cells_;
};

struct QLearningConfig {
  std::size_t state_dim = 0;
  std::size_t action_dim = 0;
  int state_levels = 4;
  int action_levels = 3;
  double alpha = 0.1;        ///< learning rate
  double gamma = 0.95;       ///< discount
  double epsilon = 1.0;      ///< initial exploration
  double epsilon_min = 0.05;
  double epsilon_decay = 0.999;
};

class QLearningAgent {
 public:
  QLearningAgent(QLearningConfig config, std::uint64_t seed);

  /// ε-greedy action (returns cell-center coordinates in [-1,1]^action_dim).
  [[nodiscard]] std::vector<double> act(std::span<const double> state);

  /// Greedy action (evaluation mode).
  [[nodiscard]] std::vector<double> act_greedy(
      std::span<const double> state) const;

  /// Q(s,a) += α(r + γ·max_a' Q(s',a') − Q(s,a)); decays ε.
  void update(std::span<const double> state, std::span<const double> action,
              double reward, std::span<const double> next_state, bool done);

  [[nodiscard]] double epsilon() const { return epsilon_; }
  [[nodiscard]] std::size_t table_entries() const { return table_.size(); }
  [[nodiscard]] std::uint64_t num_actions() const {
    return action_disc_.num_cells();
  }
  [[nodiscard]] std::size_t config_state_dim() const {
    return config_.state_dim;
  }

 private:
  QLearningConfig config_;
  Discretizer state_disc_;
  Discretizer action_disc_;
  /// Sparse table keyed by state cell; values = per-action Q row.
  std::unordered_map<std::uint64_t, std::vector<double>> table_;
  double epsilon_;
  Rng rng_;

  [[nodiscard]] std::vector<double>& q_row(std::uint64_t state_cell);
  [[nodiscard]] std::uint64_t best_action(
      const std::vector<double>& row) const;
};

}  // namespace greennfv::rl
