#pragma once

/// \file heartbeat.hpp
/// Per-shard liveness files (schema `npd.heartbeat/1`) — the out-of-band
/// channel a supervisor (`npd_launch --watch`) tails to see where a
/// running shard is without touching its report — and the one periodic
/// temp+rename file writer behind them.
///
/// A heartbeat counts nothing itself.  It is a projection of the metrics
/// registry (`util/metrics.hpp`, the only counter store): a `Projection`
/// names the registry counters that feed its progress fields, and the
/// shard identity plus `jobs_total` are fixed when the writer is built.
///
/// A heartbeat file is one small JSON document, rewritten in place via
/// the same temp + rename discipline as the result cache: a reader
/// never observes a partial document, and a writer killed mid-write
/// leaves only a stale-but-complete previous heartbeat plus a temp file
/// nobody reads.  Corrupt or missing files read as "no heartbeat" —
/// telemetry is best-effort by contract and must never fail a run.
///
/// The wall-clock `updated_unix` stamp (the basis of `--watch`'s
/// per-shard lag display) is read in heartbeat.cpp — one of the
/// telemetry TUs allowlisted by `npd_lint`'s no-wall-clock ban.  Callers that need
/// "now" to compute lag use `now_unix_seconds()` instead of touching
/// the clock themselves, which keeps every wall-clock read confined to
/// the telemetry TUs.  Timestamps never enter reports, cache keys or
/// fingerprints.

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/types.hpp"

namespace npd::heartbeat {

/// One snapshot of a shard's progress (schema `npd.heartbeat/1`).
struct Heartbeat {
  Index shard_index = 0;  ///< 0-based
  Index shard_count = 1;
  std::int64_t jobs_done = 0;
  std::int64_t jobs_total = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// Wall-clock write time (unix seconds) — what `--watch` subtracts
  /// from `now_unix_seconds()` to show per-shard lag.
  double updated_unix = 0.0;
  /// True for the final heartbeat written when the shard's jobs are
  /// done (or its writer is torn down).
  bool done = false;
};

/// The telemetry layer's sanctioned wall-clock read (unix seconds).
[[nodiscard]] double now_unix_seconds();

[[nodiscard]] Json to_json(const Heartbeat& heartbeat);

/// Parse one heartbeat document.  Returns nullopt on a wrong schema tag
/// or missing fields (never throws on malformed telemetry).  Members
/// this version does not write (older writers added `scenario` and
/// `cell`) are ignored.
[[nodiscard]] std::optional<Heartbeat> from_json(const Json& doc);

/// Write `heartbeat` to `path` (stamping `updated_unix`) via a unique
/// temp name + rename.  Returns false on I/O failure — heartbeats are
/// best-effort and must never abort the run they describe.
bool write_heartbeat(const std::filesystem::path& path,
                     Heartbeat heartbeat);

/// Read the heartbeat at `path`.  Missing, unreadable, malformed or
/// wrong-schema files all return nullopt.
[[nodiscard]] std::optional<Heartbeat> read_heartbeat(
    const std::filesystem::path& path);

/// Which registry counters feed a heartbeat's progress fields.  A name
/// that has recorded nothing (or "") reads as 0.
struct Projection {
  std::vector<std::string> jobs_done;  ///< summed into `jobs_done`
  std::string cache_hits;
  std::string cache_misses;
};

/// `identity` (shard fields and `jobs_total` kept) with its progress
/// fields read from `snapshot` through `projection`.
[[nodiscard]] Heartbeat project(Heartbeat identity,
                                const Projection& projection,
                                const metrics::MetricsSnapshot& snapshot);

/// The one periodic file writer: renders `path`'s contents and rewrites
/// it (temp + rename, `write_file_atomically`) once at construction,
/// every `interval_ms` on a background thread, and a last time with
/// `final` set on `stop()` — so a shard that finished always leaves a
/// terminal file, even when it crashes right after its jobs (the
/// destructor runs on the normal-return path of `--test-crash`).
/// Purely observational; write failures are ignored.
class PeriodicWriter {
 public:
  using Render = std::function<std::string(bool final)>;

  /// `interval_ms` must be positive.
  PeriodicWriter(std::filesystem::path path, double interval_ms,
                 Render render);
  ~PeriodicWriter();
  PeriodicWriter(const PeriodicWriter&) = delete;
  PeriodicWriter& operator=(const PeriodicWriter&) = delete;

  /// Stop the writer thread and write the final file.  Idempotent; the
  /// destructor calls it.
  void stop();

 private:
  void write(bool final);

  std::filesystem::path path_;
  double interval_ms_;
  Render render_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

/// Heartbeat contents for a `PeriodicWriter`: each write projects a
/// fresh `metrics::snapshot()` onto the shard identity and the fixed
/// `jobs_total`; the final one is `done`.
[[nodiscard]] PeriodicWriter::Render heartbeat_render(Index shard_index,
                                                      Index shard_count,
                                                      std::int64_t jobs_total,
                                                      Projection projection);

}  // namespace npd::heartbeat
