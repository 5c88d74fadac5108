#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/fs_util.hpp"
#include "common/string_util.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/fleet_series.hpp"
#include "scenario/presets.hpp"
#include "telemetry/series.hpp"
#include "tests/support/fleet_reference.hpp"

/// The per-window health series through both fleet engines. The indexed
/// window-loop engine and the frozen window-synchronous reference must
/// emit bit-identical series (they already agree on every window
/// aggregate the sampler reads), and the fault-smoke series is pinned as
/// a golden CSV so column semantics can't drift silently. Regenerate
/// deliberately with
///   GREENNFV_REGEN_GOLDEN=1 ./build/orchestrator_fleet_series_test

namespace greennfv {
namespace {

using orchestrator::FleetOrchestrator;
using orchestrator::build_reference_timeline;
using orchestrator::fleet_series_columns;

class FleetSeriesTest : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::series::set_enabled(false); }
  void TearDown() override { telemetry::series::set_enabled(false); }
};

bool regen() { return std::getenv("GREENNFV_REGEN_GOLDEN") != nullptr; }

std::string golden_path(const std::string& name) {
  return std::string(GREENNFV_GOLDEN_DIR) + "/" + name + ".csv";
}

TEST_F(FleetSeriesTest, OffByDefault) {
  const FleetOrchestrator orchestrator(scenario::preset("fleet-smoke"));
  EXPECT_EQ(orchestrator.timeline().series, nullptr);
}

TEST_F(FleetSeriesTest, SchemaIsTheSharedColumnList) {
  telemetry::series::set_enabled(true);
  const FleetOrchestrator orchestrator(scenario::preset("fleet-smoke"));
  const auto& series = orchestrator.timeline().series;
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->columns(), fleet_series_columns());
  EXPECT_EQ(series->num_rows(),
            orchestrator.timeline().windows.size());
}

TEST_F(FleetSeriesTest, EventEngineMatchesReferenceEngineBitExact) {
  // Same contract as the timeline equivalence suite, extended to the
  // series: both engines sample identical per-window rows, compared here
  // as serialized %.17g text (bit-exact for every finite double).
  telemetry::series::set_enabled(true);
  for (const char* preset : {"fleet-smoke", "fault-smoke"}) {
    SCOPED_TRACE(preset);
    const scenario::ScenarioSpec spec = scenario::preset(preset);
    const FleetOrchestrator event_engine(spec);
    const orchestrator::FleetTimeline reference =
        build_reference_timeline(spec);
    ASSERT_NE(event_engine.timeline().series, nullptr);
    ASSERT_NE(reference.series, nullptr);
    EXPECT_EQ(event_engine.timeline().series->to_csv(),
              reference.series->to_csv());
  }
}

TEST_F(FleetSeriesTest, FaultSmokeSeriesMatchesGolden) {
  telemetry::series::set_enabled(true);
  const FleetOrchestrator orchestrator(scenario::preset("fault-smoke"));
  const auto& series = orchestrator.timeline().series;
  ASSERT_NE(series, nullptr);
  const std::string text = series->to_csv();
  const std::string path = golden_path("series_fault-smoke");
  if (regen()) {
    write_file_atomic(path, text);
    return;
  }
  ASSERT_TRUE(file_exists(path))
      << "missing golden " << path
      << " — run with GREENNFV_REGEN_GOLDEN=1 to capture it";
  const std::string want = read_file(path);
  if (text == want) return;
  const auto got_lines = split(text, '\n');
  const auto want_lines = split(want, '\n');
  std::size_t line = 0;
  while (line < got_lines.size() && line < want_lines.size() &&
         got_lines[line] == want_lines[line]) {
    ++line;
  }
  FAIL() << "series golden mismatch at line " << line + 1 << "\n  golden: "
         << (line < want_lines.size() ? want_lines[line] : "<eof>")
         << "\n  engine: "
         << (line < got_lines.size() ? got_lines[line] : "<eof>");
}

TEST_F(FleetSeriesTest, FaultSmokeSeriesIsNotDegenerate) {
  // Guards the golden against pinning an all-zero table: the fault cell
  // must actually put faults, churn, and energy into the series.
  telemetry::series::set_enabled(true);
  const FleetOrchestrator orchestrator(scenario::preset("fault-smoke"));
  const auto& series = orchestrator.timeline().series;
  ASSERT_NE(series, nullptr);
  ASSERT_GT(series->num_rows(), 0u);
  const auto column_sum = [&](const char* name) {
    const std::size_t col = series->column_index(name);
    double sum = 0.0;
    for (std::size_t r = 0; r < series->num_rows(); ++r) {
      sum += series->at(r, col);
    }
    return sum;
  };
  EXPECT_GT(column_sum("arrivals"), 0.0);
  EXPECT_GT(column_sum("live_chains"), 0.0);
  EXPECT_GT(column_sum("committed_cores"), 0.0);
  EXPECT_GT(column_sum("standby_energy_j"), 0.0);
  EXPECT_GT(column_sum("node_crashes"), 0.0);
  EXPECT_GT(column_sum("node_repairs"), 0.0);
  EXPECT_GT(column_sum("replacements") + column_sum("fault_dropped"), 0.0);
  EXPECT_GT(column_sum("downtime_s"), 0.0);
  // The t_s axis must be the window clock, strictly increasing.
  const std::size_t t_col = series->column_index("t_s");
  for (std::size_t r = 1; r < series->num_rows(); ++r) {
    ASSERT_GT(series->at(r, t_col), series->at(r - 1, t_col)) << r;
  }
}

}  // namespace
}  // namespace greennfv
