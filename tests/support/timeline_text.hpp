#pragma once

#include <string>

#include "orchestrator/fleet.hpp"

/// \file timeline_text.hpp
/// The golden timeline writer: a fleet history as canonical, bit-exact
/// text (every double as "%.17g/%016llx", see double_bits in
/// orchestrator/timeline_io.hpp). It replays membership from the
/// timeline's per-window deltas rather than reading a snapshot, which is
/// what lets the same golden files pin both the window-synchronous
/// reference engine and the indexed engine.

namespace greennfv::orchestrator {

/// The full fleet history as canonical text: header counters, every
/// chain (with its flows), and per-window events + replayed membership.
/// Two timelines serialize identically iff they are bit-identical.
[[nodiscard]] std::string timeline_to_text(const FleetTimeline& timeline,
                                           int num_nodes);

}  // namespace greennfv::orchestrator
