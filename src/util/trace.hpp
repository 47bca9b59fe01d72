#pragma once

/// \file trace.hpp
/// Process-wide telemetry spans — the out-of-band "where does the time
/// go" layer underneath `--trace`.  Spans only: every counter, gauge and
/// histogram lives in the one metrics registry (`util/metrics.hpp`).
///
/// Design constraints (all load-bearing for the repo's determinism
/// story):
///   * **Out-of-band**: nothing recorded here may feed a report, a
///     cache key or a fingerprint.  Spans only ever leave
///     the process through `flush()` → `chrome_trace_json()`, a side
///     channel the byte-identity tests never see.
///   * **Off by default, near-zero when off**: every entry point first
///     checks one relaxed atomic; a disabled tracer does no allocation,
///     takes no lock, reads no clock.
///   * **Lock-free-enough when on**: each thread appends completed
///     spans to its own thread-local buffer — no lock on the hot path.  The registry of buffers is mutex-guarded
///     only at thread registration and at `flush()`.
///   * **Flush happens after the workers are gone**: `flush()` may only
///     be called when no instrumented thread is running (the engine's
///     worker pools join before returning, which provides the
///     happens-before edge that makes the drain race-free — the reason
///     the TSan job stays clean with tracing enabled).
///
/// Span timestamps come from the monotonic clock (`steady_clock`, same
/// as `Timer`); the single wall-clock read — the `flushed_unix` stamp
/// that makes a trace file attributable to a run — lives in trace.cpp,
/// one of the telemetry TUs `npd_lint`'s wall-clock ban allowlists.
///
/// `chrome_trace_json()` serializes a snapshot in the Chrome trace
/// event format (schema tag `npd.trace/1`), loadable as-is in
/// `chrome://tracing` and https://ui.perfetto.dev.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace npd::trace {

/// Is tracing on?  One relaxed atomic load — cheap enough for per-job
/// hot paths to call unconditionally.
[[nodiscard]] bool enabled();

/// Turn tracing on (resetting the span epoch to "now") or off.  Must be
/// called while no instrumented thread is running — in practice: once,
/// at tool startup, when `--trace` is present.
void set_enabled(bool on);

/// One completed span, as drained by `flush()`.
struct SpanEvent {
  std::string name;
  /// Free-form annotation ("cell=3 rep=1"); empty means none.
  std::string detail;
  std::int64_t start_us = 0;     ///< microseconds since the epoch set by
                                 ///< `set_enabled(true)`
  std::int64_t duration_us = 0;
  int tid = 0;                   ///< dense per-process thread id
                                 ///< (registration order)
  int depth = 0;                 ///< open spans above this one on its
                                 ///< thread when it began
};

/// Everything `flush()` drained: spans in per-thread completion order
/// (threads in tid order).
struct TraceSnapshot {
  std::vector<SpanEvent> spans;
  /// Wall-clock time of the flush (unix seconds) — the one field that
  /// ties a trace file to a point in real time.  0 when tracing was
  /// never enabled.
  double flushed_unix = 0.0;
};

/// RAII span: records `name` (and an optional detail annotation) from
/// construction to destruction on the current thread.  A no-op — no
/// clock read, no allocation — while tracing is disabled.  Spans nest
/// naturally: destruction order closes inner spans first, and each span
/// records the nesting depth it opened at.
class Span {
 public:
  explicit Span(std::string_view name, std::string detail = "");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  int depth_ = 0;
  std::int64_t start_us_ = 0;
  std::string name_;
  std::string detail_;
};

/// Drain every thread's buffer into one snapshot and clear them.  May
/// only be called when no instrumented thread is running (see the file
/// comment); typically once, at tool exit, before writing the trace
/// file.
[[nodiscard]] TraceSnapshot flush();

/// Serialize a snapshot as a Chrome-trace-viewer document (schema
/// `npd.trace/1`): spans become `"ph": "X"` complete events (ts/dur in
/// microseconds).
[[nodiscard]] Json chrome_trace_json(const TraceSnapshot& snapshot);

}  // namespace npd::trace
