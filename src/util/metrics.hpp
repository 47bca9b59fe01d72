#pragma once

/// \file metrics.hpp
/// The metrics registry — the process's one store of counters, gauges
/// and histograms, behind one namespace of metric names, snapshotted as
/// an `npd.metrics/1` JSON document.
///
/// Everything a tool counts is counted here, once.  The other telemetry
/// outputs are views of it: `--metrics` files and the serving daemon's
/// live `stats` op serialize a snapshot, heartbeat files
/// (`util/heartbeat.hpp`) project one onto a shard's progress fields,
/// and the tools' end-of-run lines read counters from one.  `trace`
/// records spans only.  Snapshots may be taken at any time — the
/// daemon's `stats` op and the heartbeat thread read the registry while
/// workers record into it.  The design constraints:
///
///   * **Out-of-band**: nothing recorded here may feed a report, a
///     cache key or a fingerprint.  Byte-identity of reports with and
///     without `--metrics` is cmp-enforced by `tools.metrics_roundtrip`
///     and CI.
///   * **Off by default, near-zero when off**: every entry point first
///     checks one relaxed atomic (the serving daemon turns the registry
///     on unconditionally; `npd_run` only under `--metrics` or
///     `--heartbeat`).
///   * **Lock-free thread-local shards**: each metric owns one atomic
///     cell per touching thread.  A thread resolves `name → cell`
///     through a thread-local cache (registry mutex on first touch per
///     thread per name only) and then updates its own cell with relaxed
///     atomics — no lock, no contention on the hot path.
///   * **Deterministic merge**: `snapshot()` folds cells in fixed
///     registration order with integer accumulation and emits metrics
///     name-sorted, so the same recorded multiset of values yields
///     bit-identical snapshots at any thread count; shard-level
///     snapshot documents merge the same way (`merge_snapshot_docs`),
///     which is what lets `npd_launch` fold child metrics into its
///     `npd.telemetry/1` block without breaking determinism.
///
/// Histograms use fixed log-spaced bucket bounds (powers of two from
/// 1e-6, i.e. exact double doublings) shared by every histogram: bucket
/// counts are integers, so they merge associatively, and min/max are
/// the only floating-point fields (order-independent).  There is
/// deliberately no sum/mean — a float accumulator would make the
/// snapshot depend on merge order.
///
/// The single wall-clock read — the `captured_unix` stamp that ties a
/// snapshot file to a point in real time — lives in metrics.cpp, one of
/// the telemetry TUs allowlisted by `npd_lint`'s no-wall-clock ban.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace npd::metrics {

/// Is the registry recording?  One relaxed atomic load — cheap enough
/// for per-job hot paths to call unconditionally.
[[nodiscard]] bool enabled();

/// Turn recording on or off.  Unlike `trace::set_enabled`, this may be
/// toggled at any time (cells are atomics); in practice the tools set
/// it once at startup.
void set_enabled(bool on);

/// Add `delta` to the named counter (monotonic, integer).  No-op while
/// the registry is disabled.
void counter(std::string_view name, std::int64_t delta = 1);

/// Set the named gauge to `value` (last-write-wins per thread; the
/// snapshot and cross-shard merge take the maximum across cells, the
/// only order-independent fold for a sampled level).
void gauge(std::string_view name, std::int64_t value);

/// Record one observation into the named histogram.
void observe(std::string_view name, double value);

/// Number of finite histogram buckets (one overflow bucket follows).
inline constexpr int kHistogramBuckets = 40;

/// Inclusive upper bound of finite bucket `i`: `1e-6 * 2^i`.  Exact
/// doublings, so every build computes identical bounds.
[[nodiscard]] double histogram_bound(int bucket);

struct CounterValue {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramValue {
  std::string name;
  std::int64_t count = 0;
  double min = 0.0;  ///< smallest observed value (0 when count == 0)
  double max = 0.0;  ///< largest observed value (0 when count == 0)
  /// `kHistogramBuckets + 1` counts; the last bucket is overflow.
  std::vector<std::int64_t> buckets;
};

/// One deterministic snapshot of the registry: every list name-sorted,
/// values folded across thread cells in registration order.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  /// Wall-clock capture time (unix seconds); 0 when the registry was
  /// never enabled.  The one nondeterministic field — tests zero it
  /// before comparing documents.
  double captured_unix = 0.0;

  /// The named counter's value; 0 when it has recorded nothing.
  [[nodiscard]] std::int64_t counter(std::string_view name) const;
};

/// Capture the current state.  Safe to call while instrumented threads
/// are running (cells are atomics); the values are a consistent-enough
/// live view, and an exact one once the writers have quiesced.
[[nodiscard]] MetricsSnapshot snapshot();

/// Serialize a snapshot as an `npd.metrics/1` document.
[[nodiscard]] Json snapshot_json(const MetricsSnapshot& snapshot);

/// Parse an `npd.metrics/1` document back into a snapshot.  Throws
/// `std::invalid_argument` on a wrong schema tag or malformed fields.
[[nodiscard]] MetricsSnapshot snapshot_from_json(const Json& doc);

/// Fold several snapshot documents into one: counters and histogram
/// buckets sum, gauges take the maximum, histogram min/max widen, and
/// `captured_unix` keeps the latest stamp.  Name-sorted output — the
/// same deterministic merge the in-process snapshot uses, so merging
/// per-shard documents is bit-identical to one process having recorded
/// everything (given the same recorded values).
[[nodiscard]] Json merge_snapshot_docs(const std::vector<Json>& docs);

/// Zero every cell (the registry's names and thread cells survive, so
/// cached thread-local pointers stay valid).  Test-only in spirit: may
/// only be called while no instrumented thread is recording.
void reset();

}  // namespace npd::metrics
