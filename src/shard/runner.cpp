#include "shard/runner.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace npd::shard {

namespace {

/// The scenario half of a cache key, built once per scenario (the
/// resolved-params dump is identical for every job of the scenario).
std::string scenario_key_prefix(const engine::PlannedScenario& s) {
  Json scenario_id = Json::object();
  scenario_id.set("name", s.scenario->name())
      .set("params", s.params.to_json());
  return "npd.job/1|scenario=" + scenario_id.dump() + "|";
}

}  // namespace

std::string job_cache_key(const engine::BatchPlan& plan, Index job) {
  const engine::PlannedScenario& s =
      plan.scenarios[static_cast<std::size_t>(plan.scenario_of(job))];
  return scenario_key_prefix(s) + plan.job_key(job);
}

RunJobsOutcome run_jobs(const engine::BatchPlan& plan,
                        const std::vector<Index>& job_indices, Index threads,
                        const ResultCache* cache) {
  RunJobsOutcome outcome;
  outcome.results.resize(job_indices.size());

  // One prefix per scenario, not per job: the params dump dominates the
  // key-construction cost on large sweeps.
  std::vector<std::string> prefixes;
  if (cache != nullptr) {
    prefixes.reserve(plan.scenarios.size());
    for (const engine::PlannedScenario& s : plan.scenarios) {
      prefixes.push_back(scenario_key_prefix(s));
    }
  }
  const auto key_of = [&](Index job) {
    return prefixes[static_cast<std::size_t>(plan.scenario_of(job))] +
           plan.job_key(job);
  };

  // Telemetry wrapper around an executed job's body: a span named after
  // the owning scenario (nested inside the queue's per-job span, on the
  // same worker), the `jobs.executed` count, and — when `key` is
  // non-empty — the persist-on-finish cache store.  Out-of-band by
  // construction: the metrics pass through untouched.  `store` must stay *inside* the
  // wrapper (on the worker, before the rest of the queue drains) so a
  // run killed mid-shard leaves every completed job on disk for the
  // resume (store is thread-safe: unique temp names + atomic rename).
  const bool instrument = trace::enabled() || metrics::enabled();
  const auto wrap = [&](const engine::Job& planned, Index job,
                        std::string key) {
    engine::Job wrapped = planned;
    const engine::PlannedScenario& s =
        plan.scenarios[static_cast<std::size_t>(plan.scenario_of(job))];
    wrapped.run = [inner = planned.run, cache, key = std::move(key),
                   scenario = s.scenario->name()](rand::Rng& rng) {
      const trace::Span span(scenario);
      engine::Metrics metrics = inner(rng);
      if (!key.empty()) {
        cache->store(key, metrics);
      }
      metrics::counter("jobs.executed");
      return metrics;
    };
    return wrapped;
  };

  // Replay every cache hit, queue every miss.  The queue keeps the
  // engine's scheduling (LPT over the submitted subset) and seed
  // contract, so the executed subset computes exactly what the
  // single-process run computes for those jobs.
  engine::JobQueue queue;
  std::vector<std::size_t> miss_slots;  // queue order -> outcome slot
  for (std::size_t i = 0; i < job_indices.size(); ++i) {
    const Index job = job_indices[i];
    NPD_CHECK_MSG(job >= 0 && job < static_cast<Index>(plan.jobs.size()),
                  "run_jobs: job index out of range");
    const engine::Job& planned = plan.jobs[static_cast<std::size_t>(job)];
    if (cache != nullptr) {
      std::string key = key_of(job);
      if (std::optional<engine::Metrics> metrics = cache->load(key)) {
        engine::JobResult& result = outcome.results[i];
        result.cell = planned.cell;
        result.rep = planned.rep;
        result.metrics = std::move(*metrics);
        result.wall_seconds = 0.0;  // replayed, not executed
        ++outcome.cache_hits;
        metrics::counter("cache.hits");
        metrics::counter("jobs.replayed");
        continue;
      }
      metrics::counter("cache.misses");
      (void)queue.push(wrap(planned, job, std::move(key)));
    } else if (instrument) {
      (void)queue.push(wrap(planned, job, std::string()));
    } else {
      (void)queue.push(planned);
    }
    miss_slots.push_back(i);
  }

  const std::vector<engine::JobResult> executed = queue.run(threads);
  NPD_CHECK_MSG(executed.size() == miss_slots.size(),
                "run_jobs: executor returned an unexpected result count");
  for (std::size_t q = 0; q < executed.size(); ++q) {
    outcome.results[miss_slots[q]] = executed[q];
  }
  outcome.executed = static_cast<Index>(executed.size());
  return outcome;
}

}  // namespace npd::shard
