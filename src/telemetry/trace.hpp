#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "telemetry/metrics.hpp"

/// \file trace.hpp
/// Scoped-span flight recorder. Each thread owns a fixed-capacity ring of
/// `TraceEvent`s (one vector, allocated at the thread's first span —
/// steady-state recording allocates nothing; overflow wraps,
/// overwriting the oldest spans and counting the loss). A `Span` records
/// one wall-clock interval around a scope; when tracing is disabled the
/// constructor is a relaxed flag load and a branch.
///
/// The recorder never touches simulation state: span names are interned
/// `const char*`s, timestamps come from the steady clock, and nothing
/// recorded here feeds back into any model — which is why timelines and
/// campaign artifacts are byte-identical with tracing on vs off (pinned
/// by tests/telemetry/trace_determinism_test.cpp).
///
/// Export is Chrome/Perfetto Trace Event JSON ("X" complete events, plus
/// one "C" counter sample per registered metric when the metrics registry
/// is enabled): load the file in https://ui.perfetto.dev or
/// chrome://tracing.

namespace greennfv::telemetry::trace {

/// One completed span. `name` is interned (or a string literal) — the
/// event does not own it.
struct TraceEvent {
  const char* name = nullptr;
  std::int64_t ts_ns = 0;   ///< begin, relative to the trace epoch
  std::int64_t dur_ns = 0;  ///< duration
  std::uint64_t arg = 0;    ///< free-form payload (window, run index...)
  bool has_arg = false;
};

/// Global recording switch (default off). Enabling mid-run is safe; the
/// epoch is pinned at first use so timestamps stay comparable.
[[nodiscard]] bool runtime_enabled();
void set_enabled(bool on);

/// Ring capacity (events) for buffers created after this call. Existing
/// thread buffers keep their size. Default 65536 events per thread.
void set_thread_capacity(std::size_t events);

/// Interns a dynamic span name; the returned pointer is stable for the
/// process lifetime. Use for per-run/per-model labels built at runtime —
/// hot paths should pass string literals instead.
[[nodiscard]] const char* intern(const std::string& name);

/// Drops every recorded event and dropped-count (buffers stay allocated).
void reset();

/// Events lost to ring wraparound, summed over all threads.
[[nodiscard]] std::uint64_t dropped();

/// Number of events currently held across all thread rings.
[[nodiscard]] std::size_t recorded();

/// Monotonic nanoseconds since the trace epoch.
[[nodiscard]] std::int64_t now_ns();

// --- scoped collection (per-campaign-run trace slices) ---------------------

/// A position in the calling thread's event stream. A campaign worker
/// marks before executing a run and extracts the slice after: the run
/// executes synchronously on one thread, so everything it recorded sits
/// between the two marks.
struct Mark {
  void* buffer = nullptr;
  std::uint64_t head = 0;
};

[[nodiscard]] Mark mark();

/// Copies the calling thread's events recorded since `m` (oldest first;
/// events lost to wraparound in between are simply absent).
[[nodiscard]] std::vector<TraceEvent> events_since(const Mark& m);

// --- export -----------------------------------------------------------------

/// Serializes explicit events as a Trace Event JSON document (one "X"
/// entry per event under the given tid).
[[nodiscard]] Json events_to_json(const std::vector<TraceEvent>& events,
                                  int tid = 0);

/// Full-process export: every thread's kept events as "X" entries (pid 1,
/// tid = thread registration order), one "C" counter sample per metric
/// when the metrics registry is enabled, and an `otherData` block with
/// the dropped-event count.
[[nodiscard]] Json to_json();

/// to_json() pretty-printed to `path` (atomic write).
void write_json(const std::string& path);

/// The RAII span. Construct through the GNFV_TRACE_SPAN macros; the
/// destructor records the event (and adds the duration to `timer`, when
/// one is attached and the metrics registry is enabled — phase-breakdown
/// accounting shares the clock reads with the trace).
class Span {
 public:
  explicit Span(const char* name, metrics::Counter* timer = nullptr)
      : name_(name), timer_(timer) {
    if (runtime_enabled() || (timer_ != nullptr && metrics::enabled()))
      start_ns_ = now_ns();
  }
  Span(const char* name, std::uint64_t arg,
       metrics::Counter* timer = nullptr)
      : Span(name, timer) {
    arg_ = arg;
    has_arg_ = true;
  }
  ~Span() {
    if (start_ns_ >= 0) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void finish();

  const char* name_;
  metrics::Counter* timer_;
  std::uint64_t arg_ = 0;
  bool has_arg_ = false;
  std::int64_t start_ns_ = -1;  ///< -1 = inactive (nothing to record)
};

}  // namespace greennfv::telemetry::trace

#define GNFV_TRACE_CONCAT_INNER(a, b) a##b
#define GNFV_TRACE_CONCAT(a, b) GNFV_TRACE_CONCAT_INNER(a, b)
/// GNFV_TRACE_SPAN("layer/what"[, arg][, &timer_counter]): records a span
/// covering the rest of the enclosing scope.
#define GNFV_TRACE_SPAN(...)                                  \
  ::greennfv::telemetry::trace::Span GNFV_TRACE_CONCAT(       \
      gnfv_trace_span_, __LINE__)(__VA_ARGS__)
