#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>

#include "common/fs_util.hpp"

namespace greennfv::telemetry::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_capacity{65536};

/// One thread's span ring. Only the owner appends; flush/extract from
/// other threads serialize against the owner through `mutex` (appends are
/// span-granular — the lock is uncontended in steady state and far
/// cheaper than the two clock reads bracketing it).
struct ThreadBuffer {
  explicit ThreadBuffer(int tid_in, std::size_t capacity)
      : tid(tid_in), ring(capacity) {}

  void append(const TraceEvent& event) {
    std::lock_guard<std::mutex> lock(mutex);
    ring[head % ring.size()] = event;
    ++head;
  }

  /// Kept events, oldest first, from absolute position `since` on.
  std::vector<TraceEvent> extract(std::uint64_t since) {
    std::lock_guard<std::mutex> lock(mutex);
    const std::uint64_t oldest = head > ring.size() ? head - ring.size() : 0;
    std::vector<TraceEvent> out;
    for (std::uint64_t i = std::max(since, oldest); i < head; ++i)
      out.push_back(ring[i % ring.size()]);
    return out;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex);
    head = 0;
  }

  [[nodiscard]] std::uint64_t dropped_count() {
    std::lock_guard<std::mutex> lock(mutex);
    return head > ring.size() ? head - ring.size() : 0;
  }

  [[nodiscard]] std::size_t kept() {
    std::lock_guard<std::mutex> lock(mutex);
    return head < ring.size() ? static_cast<std::size_t>(head) : ring.size();
  }

  std::mutex mutex;
  int tid;
  std::vector<TraceEvent> ring;  ///< fixed size, allocated once
  std::uint64_t head = 0;  ///< absolute appended-event count
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::deque<std::string> interned;
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: worker threads
  return *instance;                            // may outlive main
}

ThreadBuffer& buffer_for_this_thread() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto created = std::make_shared<ThreadBuffer>(
        static_cast<int>(reg.buffers.size()),
        g_capacity.load(std::memory_order_relaxed));
    reg.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

std::chrono::steady_clock::time_point epoch() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}

Json event_to_json(const TraceEvent& event, int tid) {
  Json entry = Json::object();
  entry.set("name", event.name != nullptr ? event.name : "?");
  entry.set("cat", "greennfv");
  entry.set("ph", "X");
  // Trace Event timestamps are microseconds; fractional digits keep the
  // full ns resolution.
  entry.set("ts", static_cast<double>(event.ts_ns) / 1e3);
  entry.set("dur", static_cast<double>(event.dur_ns) / 1e3);
  entry.set("pid", 1);
  entry.set("tid", tid);
  if (event.has_arg) {
    Json args = Json::object();
    args.set("arg", static_cast<double>(event.arg));
    entry.set("args", std::move(args));
  }
  return entry;
}

}  // namespace

bool runtime_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  (void)epoch();  // pin the epoch no later than the first enable
  g_enabled.store(on, std::memory_order_relaxed);
}

void set_thread_capacity(std::size_t events) {
  g_capacity.store(events == 0 ? 1 : events, std::memory_order_relaxed);
}

const char* intern(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const std::string& existing : reg.interned)
    if (existing == name) return existing.c_str();
  reg.interned.push_back(name);
  return reg.interned.back().c_str();
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) buffer->clear();
}

std::uint64_t dropped() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : reg.buffers) total += buffer->dropped_count();
  return total;
}

std::size_t recorded() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& buffer : reg.buffers) total += buffer->kept();
  return total;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch())
      .count();
}

Mark mark() {
  ThreadBuffer& buffer = buffer_for_this_thread();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  return Mark{&buffer, buffer.head};
}

std::vector<TraceEvent> events_since(const Mark& m) {
  if (m.buffer == nullptr) return {};
  return static_cast<ThreadBuffer*>(m.buffer)->extract(m.head);
}

Json events_to_json(const std::vector<TraceEvent>& events, int tid) {
  Json trace_events = Json::array();
  for (const TraceEvent& event : events)
    trace_events.push_back(event_to_json(event, tid));
  Json doc = Json::object();
  doc.set("traceEvents", std::move(trace_events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

Json to_json() {
  Registry& reg = registry();
  Json trace_events = Json::array();
  std::uint64_t total_dropped = 0;
  std::int64_t last_ts_ns = 0;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& buffer : reg.buffers) {
      total_dropped += buffer->dropped_count();
      for (const TraceEvent& event : buffer->extract(0)) {
        last_ts_ns =
            std::max(last_ts_ns, event.ts_ns + event.dur_ns);
        trace_events.push_back(event_to_json(event, buffer->tid));
      }
    }
  }
  // One final counter sample per metric: Perfetto renders these as
  // counter tracks next to the spans.
  if (metrics::enabled()) {
    for (const auto& entry : metrics::snapshot().entries) {
      Json sample = Json::object();
      sample.set("name", entry.name);
      sample.set("cat", "greennfv");
      sample.set("ph", "C");
      sample.set("ts", static_cast<double>(last_ts_ns) / 1e3);
      sample.set("pid", 1);
      sample.set("tid", 0);
      Json args = Json::object();
      args.set("value", entry.value);
      sample.set("args", std::move(args));
      trace_events.push_back(std::move(sample));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(trace_events));
  doc.set("displayTimeUnit", "ms");
  Json other = Json::object();
  other.set("dropped_events", static_cast<double>(total_dropped));
  doc.set("otherData", std::move(other));
  return doc;
}

void write_json(const std::string& path) {
  write_file_atomic(path, to_json().dump(1) + "\n");
}

void Span::finish() {
  const std::int64_t end_ns = now_ns();
  const std::int64_t dur_ns = end_ns - start_ns_;
  if (timer_ != nullptr && metrics::enabled())
    timer_->add(static_cast<std::uint64_t>(dur_ns < 0 ? 0 : dur_ns));
  if (!runtime_enabled()) return;
  TraceEvent event;
  event.name = name_;
  event.ts_ns = start_ns_;
  event.dur_ns = dur_ns;
  event.arg = arg_;
  event.has_arg = has_arg_;
  buffer_for_this_thread().append(event);
}

}  // namespace greennfv::telemetry::trace
