#pragma once

#include <string>
#include <vector>

#include "orchestrator/fleet.hpp"

/// \file timeline_io.hpp
/// Canonical text serialization of fleet evaluations, plus the
/// membership-replay helper the orchestrator (and the golden timeline
/// writer in tests/support/timeline_text.hpp) use to reconstruct per-node
/// hosted-chain lists from the timeline's per-window deltas — which lets
/// the timeline drop per-window membership storage (prohibitive at 10k
/// nodes x hundreds of windows). The format is bit-exact: every double is
/// printed both human-readably (%.17g) and as its raw IEEE-754 bit
/// pattern, so a golden file pins the engine's arithmetic — not just its
/// rounding.

namespace greennfv::orchestrator {

/// Reconstructs per-node membership window by window from a timeline's
/// deltas. Replays exactly the mutation order of the timeline builder:
/// departures leave, arrivals land on their first_node, migrations move
/// chains — after which each perturbed node's hosted list is re-sorted
/// (the builder's end-of-window discipline, so lists are always sorted
/// at window boundaries).
class MembershipReplay {
 public:
  /// `num_nodes` > 0; the timeline must outlive the replay.
  MembershipReplay(const FleetTimeline& timeline, int num_nodes);

  /// Applies the next window's deltas. Returns the sorted ids of nodes
  /// whose membership changed this window (the "dirty" set). Callable at
  /// most timeline.windows.size() times.
  const std::vector<int>& advance();

  /// Windows applied so far (the next advance() applies window `cursor()`).
  [[nodiscard]] int cursor() const { return cursor_; }
  /// Sorted chain ids hosted by `node` after the last advance().
  [[nodiscard]] const std::vector<int>& members(int node) const {
    return members_[static_cast<std::size_t>(node)];
  }
  /// Sorted ids of nodes currently hosting at least one chain.
  [[nodiscard]] const std::vector<int>& occupied() const { return occupied_; }
  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(members_.size());
  }

 private:
  void move_chain(int chain, int to);

  const FleetTimeline* timeline_;
  int cursor_ = 0;
  std::vector<std::vector<int>> members_;
  /// Current host per chain id; -1 = not in the fleet.
  std::vector<int> chain_node_;
  std::vector<int> occupied_;
  std::vector<int> dirty_;
};

/// Formats `value` as "%.17g/%016llx" — decimal plus raw bit pattern.
[[nodiscard]] std::string double_bits(double value);

/// A fleet evaluation as canonical text: fleet history summary, every
/// model's means, and every recorded series sample (names sorted).
[[nodiscard]] std::string eval_to_text(const FleetReport& report);

}  // namespace greennfv::orchestrator
