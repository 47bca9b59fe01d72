#include "util/trace.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>

namespace npd::trace {

namespace {

/// Everything a thread records between flushes.  Owned by the registry
/// (so it outlives its thread); touched lock-free by exactly one thread
/// while that thread is alive, and by `flush()` only after the thread
/// has been joined.
struct ThreadBuffer {
  int tid = 0;
  int open_depth = 0;
  std::vector<SpanEvent> spans;  // completion order
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // tid order
};

std::atomic<bool> g_enabled{false};
/// steady_clock nanoseconds at the last `set_enabled(true)` — the span
/// epoch.  Atomic so worker threads may read it without the registry
/// lock.
std::atomic<std::int64_t> g_epoch_ns{0};

Registry& registry() {
  static Registry instance;
  return instance;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Microseconds since the span epoch.
std::int64_t now_us() {
  return (steady_ns() - g_epoch_ns.load(std::memory_order_relaxed)) / 1000;
}

/// This thread's buffer, registering it (under the registry lock) on
/// first use.  The returned reference stays valid for the process
/// lifetime — buffers are never destroyed, only drained.
ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    raw->tid = static_cast<int>(reg.buffers.size());
    reg.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

/// The one sanctioned wall-clock read of the telemetry layer (this TU
/// is allowlisted by npd_lint's no-wall-clock rule): stamps the flush
/// time into the snapshot so a trace file is attributable to a run.
/// Never feeds results, keys or fingerprints.
double wall_unix_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  if (on) {
    g_epoch_ns.store(steady_ns(), std::memory_order_relaxed);
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

Span::Span(std::string_view name, std::string detail) {
  if (!enabled()) {
    return;
  }
  active_ = true;
  name_ = std::string(name);
  detail_ = std::move(detail);
  depth_ = local_buffer().open_depth++;
  start_us_ = now_us();
}

Span::~Span() {
  if (!active_) {
    return;
  }
  const std::int64_t end_us = now_us();
  ThreadBuffer& buffer = local_buffer();
  --buffer.open_depth;
  SpanEvent event;
  event.name = std::move(name_);
  event.detail = std::move(detail_);
  event.start_us = start_us_;
  event.duration_us = end_us - start_us_;
  event.tid = buffer.tid;
  event.depth = depth_;
  buffer.spans.push_back(std::move(event));
}

TraceSnapshot flush() {
  TraceSnapshot snapshot;
  Registry& reg = registry();
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const std::unique_ptr<ThreadBuffer>& buffer : reg.buffers) {
      for (SpanEvent& event : buffer->spans) {
        snapshot.spans.push_back(std::move(event));
      }
      buffer->spans.clear();
    }
  }
  if (g_epoch_ns.load(std::memory_order_relaxed) != 0) {
    snapshot.flushed_unix = wall_unix_seconds();
  }
  return snapshot;
}

Json chrome_trace_json(const TraceSnapshot& snapshot) {
  const auto pid = static_cast<std::int64_t>(::getpid());
  Json doc = Json::object();
  doc.set("schema", "npd.trace/1")
      .set("displayTimeUnit", "ms")
      .set("flushed_unix", snapshot.flushed_unix);

  Json events = Json::array();
  for (const SpanEvent& span : snapshot.spans) {
    Json event = Json::object();
    event.set("name", span.name)
        .set("cat", "npd")
        .set("ph", "X")
        .set("ts", span.start_us)
        .set("dur", span.duration_us)
        .set("pid", pid)
        .set("tid", span.tid);
    Json args = Json::object();
    args.set("depth", span.depth);
    if (!span.detail.empty()) {
      args.set("detail", span.detail);
    }
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  doc.set("traceEvents", std::move(events));
  return doc;
}

}  // namespace npd::trace
