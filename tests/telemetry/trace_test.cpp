#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

/// Flight-recorder ring contract: disabled spans record nothing, rings
/// wrap by dropping the *oldest* events (checked against a plain-vector
/// oracle under fuzz), mark/extract brackets exactly the calling thread's
/// slice, cross-thread flush reaches every buffer, and the Perfetto JSON
/// export is schema-valid.

namespace greennfv::telemetry::trace {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(false);
    metrics::reset();
    set_enabled(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    set_thread_capacity(65536);
    reset();
    metrics::set_enabled(false);
    metrics::reset();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  {
    GNFV_TRACE_SPAN("test/disabled");
    const Span explicit_span("test/disabled_explicit");
  }
  EXPECT_EQ(recorded(), 0u);
  EXPECT_EQ(dropped(), 0u);
}

TEST_F(TraceTest, SpansCloseInnermostFirst) {
  set_enabled(true);
  const Mark start = mark();
  {
    GNFV_TRACE_SPAN("test/outer");
    { GNFV_TRACE_SPAN("test/inner", std::uint64_t{7}); }
  }
  const std::vector<TraceEvent> events = events_since(start);
  ASSERT_EQ(events.size(), 2u);
  // Events append at span *close*: the nested span lands first, but its
  // interval nests inside the parent's.
  EXPECT_STREQ(events[0].name, "test/inner");
  EXPECT_TRUE(events[0].has_arg);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_STREQ(events[1].name, "test/outer");
  EXPECT_LE(events[1].ts_ns, events[0].ts_ns);
  EXPECT_GE(events[1].ts_ns + events[1].dur_ns,
            events[0].ts_ns + events[0].dur_ns);
}

TEST_F(TraceTest, TimerCounterAccumulatesEvenWithTracingOff) {
  // The phase-breakdown contract benches rely on: an explicit Span with
  // an attached timer feeds the metrics registry whenever metrics are
  // enabled, tracing on or off.
  metrics::set_enabled(true);
  metrics::Counter& timer = metrics::counter("test.span_timer_ns");
  {
    const Span span("test/timed", &timer);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_GT(timer.value(), 0u);
  EXPECT_EQ(recorded(), 0u);  // tracing itself stayed off
}

TEST_F(TraceTest, MarkBracketsExactlyTheSliceSinceIt) {
  set_enabled(true);
  { GNFV_TRACE_SPAN("test/before"); }
  const Mark m = mark();
  { GNFV_TRACE_SPAN("test/slice_a"); }
  { GNFV_TRACE_SPAN("test/slice_b"); }
  const std::vector<TraceEvent> slice = events_since(m);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_STREQ(slice[0].name, "test/slice_a");
  EXPECT_STREQ(slice[1].name, "test/slice_b");
}

TEST_F(TraceTest, InternedNamesAreStableAndDeduplicated) {
  const std::string dynamic = "test/run:" + std::to_string(12);
  const char* a = intern(dynamic);
  const char* b = intern(dynamic);
  EXPECT_EQ(a, b);
  EXPECT_EQ(dynamic, a);
}

TEST_F(TraceTest, WraparoundKeepsNewestAndCountsDropped) {
  set_enabled(true);
  constexpr std::size_t kCapacity = 32;
  constexpr std::uint64_t kSpans = 100;
  set_thread_capacity(kCapacity);
  std::vector<TraceEvent> kept;
  // A fresh thread gets a fresh ring at the reduced capacity (the test
  // thread's buffer was already created at the default size).
  std::thread recorder([&kept] {
    const Mark start = mark();
    for (std::uint64_t i = 0; i < kSpans; ++i) {
      GNFV_TRACE_SPAN("test/wrap", i);
    }
    kept = events_since(start);
  });
  recorder.join();
  ASSERT_EQ(kept.size(), kCapacity);
  EXPECT_EQ(dropped(), kSpans - kCapacity);
  // The ring keeps the newest events, oldest-first.
  for (std::size_t i = 0; i < kept.size(); ++i)
    EXPECT_EQ(kept[i].arg, kSpans - kCapacity + i);
}

TEST_F(TraceTest, FuzzedRingMatchesVectorOracle) {
  set_enabled(true);
  constexpr std::size_t kCapacity = 64;
  set_thread_capacity(kCapacity);
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 10; ++round) {
    const std::size_t spans = 1 + rng() % 300;
    std::vector<std::pair<const char*, std::uint64_t>> oracle;
    std::vector<TraceEvent> kept;
    std::thread recorder([&] {
      const Mark start = mark();
      for (std::size_t i = 0; i < spans; ++i) {
        const char* name = (rng() % 2 == 0) ? "test/fuzz_a" : "test/fuzz_b";
        const auto arg = static_cast<std::uint64_t>(rng() % 1000);
        { Span span(name, arg); }
        oracle.emplace_back(name, arg);
      }
      kept = events_since(start);
    });
    recorder.join();
    // The ring must hold exactly the newest min(capacity, spans) events,
    // in record order, with monotone close timestamps.
    const std::size_t expect = std::min(kCapacity, spans);
    ASSERT_EQ(kept.size(), expect) << "round " << round;
    const std::size_t base = spans - expect;
    std::int64_t last_end = 0;
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_STREQ(kept[i].name, oracle[base + i].first);
      EXPECT_EQ(kept[i].arg, oracle[base + i].second);
      EXPECT_GE(kept[i].ts_ns + kept[i].dur_ns, last_end);
      last_end = kept[i].ts_ns + kept[i].dur_ns;
    }
  }
}

TEST_F(TraceTest, ExportCoversEveryThreadAndValidatesAsPerfetto) {
  set_enabled(true);
  metrics::set_enabled(true);
  metrics::counter("test.export_counter").add(5);
  { GNFV_TRACE_SPAN("test/main_thread"); }
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i <= t; ++i) {
        GNFV_TRACE_SPAN("test/worker");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const Json doc = to_json();
  ASSERT_TRUE(doc.has("traceEvents"));
  ASSERT_TRUE(doc.has("displayTimeUnit"));
  EXPECT_EQ(doc.at("otherData").at("dropped_events").as_double(), 0.0);

  std::size_t spans = 0;
  std::size_t counter_samples = 0;
  std::vector<int> tids;
  for (const Json& event : doc.at("traceEvents").elements()) {
    for (const char* key : {"ph", "ts", "pid", "tid", "name"})
      ASSERT_TRUE(event.has(key)) << "missing " << key;
    const std::string ph = event.at("ph").as_string();
    EXPECT_GE(event.at("ts").as_double(), 0.0);
    if (ph == "C") {
      ++counter_samples;
      continue;
    }
    ASSERT_EQ(ph, "X");
    EXPECT_GE(event.at("dur").as_double(), 0.0);
    tids.push_back(static_cast<int>(event.at("tid").as_double()));
    ++spans;
  }
  // 1 main-thread span + 1+2+3 worker spans, one "C" sample per metric.
  EXPECT_EQ(spans, 7u);
  EXPECT_GE(counter_samples, 1u);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), 4u);  // main + 3 workers, distinct tids
}

}  // namespace
}  // namespace greennfv::telemetry::trace
