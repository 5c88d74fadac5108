#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "orchestrator/fleet.hpp"
#include "orchestrator/fleet_index.hpp"
#include "scenario/presets.hpp"
#include "tests/support/fleet_reference.hpp"
#include "tests/support/placement_reference.hpp"
#include "tests/support/timeline_text.hpp"

/// Regression for the dirty-tracking blind spot: a node that power-gated
/// to Asleep is invisible to the indexed engine's incremental bookkeeping
/// until something touches it. When a migration then targets it, the
/// wake must charge its latency and boot energy exactly as the
/// window-synchronous engine did — and the engine must keep working off
/// a consistent index afterwards (the woken node is placeable again).
///
/// The registry policies never migrate onto a sleeping node, so the test
/// injects a custom policy through the orchestrator's policy seam. The
/// policy has two forms of one rule: an index form for the engine and a
/// view form for the reference engine, so the equivalence case also pins
/// a custom policy's in-place index reads against a scan.

namespace greennfv::orchestrator {
namespace {

/// Packs arrivals onto the lowest awake node so the tail of the fleet
/// drains and power-gates; then, on every consolidation pass where some
/// node sleeps, migrates the busiest node's first chain onto the lowest
/// sleeping node — the exact move the registry policies refuse to make.
/// This is the engine's form: it reads the FleetIndex in place.
class WakeOnMigratePolicy final : public FleetPolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "wake-on-migrate";
  }

  [[nodiscard]] int choose(const FleetIndex& index,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    const auto fits = [&](int n) {
      return !index.down(n) && index.committed_cores(n) + request.cores <=
                                   index.capacity_cores() + 1e-9;
    };
    for (int n = 0; n < index.num_nodes(); ++n)
      if (!index.asleep(n) && fits(n)) return n;
    for (int n = 0; n < index.num_nodes(); ++n)
      if (index.asleep(n) && fits(n)) return n;
    return -1;
  }

  [[nodiscard]] std::vector<Migration> consolidate(
      const FleetIndex& index, double below) const override {
    (void)below;
    int sleeper = -1;
    for (int n = 0; n < index.num_nodes(); ++n) {
      if (index.asleep(n)) {
        sleeper = n;
        break;
      }
    }
    if (sleeper < 0) return {};
    int donor = -1;
    std::size_t most = 1;  // needs >= 2 chains so the donor stays occupied
    for (int n = 0; n < index.num_nodes(); ++n) {
      if (index.asleep(n)) continue;
      if (index.hosted(n).size() > most) {
        most = index.hosted(n).size();
        donor = n;
      }
    }
    if (donor < 0) return {};
    return {{index.hosted(donor).front(), donor, sleeper}};
  }
};

/// The same rule as a scan over a FleetView, for the reference engine.
class WakeOnMigrateScan final : public ReferencePolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "wake-on-migrate";
  }

  [[nodiscard]] int choose(const FleetView& view,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    for (std::size_t n = 0; n < view.nodes.size(); ++n)
      if (!view.nodes[n].asleep && view.nodes[n].fits(request.cores))
        return static_cast<int>(n);
    for (std::size_t n = 0; n < view.nodes.size(); ++n)
      if (view.nodes[n].asleep && view.nodes[n].fits(request.cores))
        return static_cast<int>(n);
    return -1;
  }

  [[nodiscard]] std::vector<Migration> consolidate(
      const FleetView& view, double below) const override {
    (void)below;
    int sleeper = -1;
    for (std::size_t n = 0; n < view.nodes.size(); ++n) {
      if (view.nodes[n].asleep) {
        sleeper = static_cast<int>(n);
        break;
      }
    }
    if (sleeper < 0) return {};
    int donor = -1;
    std::size_t most = 1;  // needs >= 2 chains so the donor stays occupied
    for (std::size_t n = 0; n < view.nodes.size(); ++n) {
      if (view.nodes[n].asleep) continue;
      if (view.nodes[n].chains.size() > most) {
        most = view.nodes[n].chains.size();
        donor = static_cast<int>(n);
      }
    }
    if (donor < 0) return {};
    const ChainLoad& chain =
        view.nodes[static_cast<std::size_t>(donor)].chains.front();
    return {{chain.id, donor, sleeper}};
  }
};

scenario::ScenarioSpec wake_spec() {
  scenario::ScenarioSpec spec = scenario::preset("fleet-smoke");
  spec.seed = 5;
  spec.num_nodes = 4;
  spec.fleet.arrival_rate = 0.9;
  spec.fleet.horizon_windows = 16;
  spec.fleet.mean_holding_windows = 6.0;
  spec.fleet.sleep_after_windows = 1;
  return spec;
}

TEST(FleetWakeRegression, MigrationIntoSleepingNodeChargesWakeExactly) {
  const scenario::ScenarioSpec spec = wake_spec();
  FleetOrchestrator orchestrator(
      spec, std::make_unique<WakeOnMigratePolicy>());
  const FleetTimeline& timeline = orchestrator.timeline();

  // The scenario must actually hit the blind spot: at least one wake-up
  // caused by a migration (not an arrival).
  ASSERT_GT(timeline.migrations, 0);
  ASSERT_GT(timeline.wakeups, 0);

  int migration_wakes = 0;
  for (const FleetTimeline::Window& win : timeline.windows) {
    for (const Migration& move : win.migrations) {
      // A wake triggered by this migration shows up as a non-migration
      // charge for the same chain in the same window.
      for (const DowntimeCharge& charge : win.charges) {
        if (charge.chain != move.chain ||
            charge.kind == ChargeKind::kMigration)
          continue;
        // Arrival wakes also charge the arriving chain; only count the
        // charge when the chain is not among this window's arrivals.
        bool arrived_here = false;
        for (const int id : win.arrivals) {
          if (id == move.chain) arrived_here = true;
        }
        if (arrived_here) continue;
        ++migration_wakes;
        // The wake bills exactly the configured latency, and boots cost
        // energy (p_idle over the wake transition, per the power model).
        EXPECT_EQ(charge.downtime_s, spec.node.wake_latency_s);
        EXPECT_GT(charge.energy_j, 0.0);
      }
    }
  }
  EXPECT_GT(migration_wakes, 0)
      << "no migration ever targeted a sleeping node — the scenario no"
         " longer exercises the blind spot";
}

TEST(FleetWakeRegression, MigrationWakeMatchesWindowSynchronousEngine) {
  // Bit-identity under the injected policy: the indexed engine's dirty
  // tracking and index/power synchronization must reproduce the
  // reference engine's history exactly, including the wake charges.
  const scenario::ScenarioSpec spec = wake_spec();
  FleetOrchestrator event_engine(
      spec, std::make_unique<WakeOnMigratePolicy>());
  const WakeOnMigrateScan reference_policy;
  const FleetTimeline reference =
      build_reference_timeline(spec, &reference_policy);
  EXPECT_EQ(timeline_to_text(event_engine.timeline(), spec.num_nodes),
            timeline_to_text(reference, spec.num_nodes));
}

}  // namespace
}  // namespace greennfv::orchestrator
