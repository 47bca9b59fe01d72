#pragma once

/// \file runner.hpp
/// Cache-aware execution of any subset of a batch plan's jobs — the
/// worker side of a sharded (or cache-resumed single-process) run.
///
/// `run_jobs` first consults the optional `ResultCache` for every
/// requested job; the misses go through the engine's `JobQueue` (same
/// LPT scheduling, same per-job seed contract, so a partially cached run
/// is bit-identical to a cold one) and each is stored into the cache the
/// moment it finishes on its worker — not after the whole queue drains.
/// A sweep killed mid-shard therefore resumes where it crashed: every
/// job that completed before the kill replays from disk, only the rest
/// re-run.

#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "shard/result_cache.hpp"

namespace npd::shard {

/// The canonical cache key of one planned job: schema tag, owning
/// scenario's name + resolved parameters, and the engine job key
/// (cell/rep/derived seed).  Deliberately **not** keyed on the whole
/// batch (reps, co-scheduled scenarios): a widened rerun — more reps, an
/// added scenario — reuses every already-finished job.  The key pins
/// every *input* of the job but not the code that runs it; after
/// changing a scenario or solver implementation, discard the cache
/// directory (nothing on disk can tell the versions apart).
[[nodiscard]] std::string job_cache_key(const engine::BatchPlan& plan,
                                        Index job);

/// Outcome of `run_jobs`: results aligned element-for-element with the
/// requested job indices, plus hit/miss accounting for the driver's
/// summary.
struct RunJobsOutcome {
  std::vector<engine::JobResult> results;
  Index cache_hits = 0;
  Index executed = 0;
};

/// Execute (or replay from `cache`, when non-null) the plan jobs listed
/// in `job_indices`, on up to `threads` workers.  Cached results carry
/// `wall_seconds == 0` (perf telemetry only; aggregates are unaffected).
///
/// Telemetry (strictly out-of-band; the result bytes are identical with
/// or without it): when tracing is enabled, every executed job runs
/// under a span named after its scenario; when the metrics registry is
/// enabled, the `cache.hits` / `cache.misses` / `jobs.executed` /
/// `jobs.replayed` counters are maintained live as the shard runs (the
/// feed behind `--heartbeat` and `npd_launch --watch`).
[[nodiscard]] RunJobsOutcome run_jobs(const engine::BatchPlan& plan,
                                      const std::vector<Index>& job_indices,
                                      Index threads,
                                      const ResultCache* cache);

}  // namespace npd::shard
