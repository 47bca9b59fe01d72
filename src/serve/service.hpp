#pragma once

/// \file service.hpp
/// The socket-free heart of the serving daemon: take a micro-batch of
/// parsed requests, resolve each against the design cache, expand their
/// jobs, run *all* of them on one shared `JobQueue`, and fold each
/// request's slice back into its own `npd.response/1` document.
///
/// Determinism is inherited from the engine wholesale: every job's seed
/// is derived before execution from the request's base seed (explicit,
/// or `derive_request_seed(server_seed, id)`), so which requests happen
/// to share a micro-batch, the batch window, and the worker thread
/// count can never change a response's deterministic core.  Each
/// response embeds a `RunReport::to_json(false)` — byte-identical to
/// the offline `npd_run --no-perf --seed <seed>` report for the same
/// configuration, which is exactly what `tools.serve_roundtrip`
/// verifies with `cmp`.
///
/// A job that throws mid-solve fails only its own request (the run
/// closure is wrapped; the first exception message becomes that
/// request's error response) — one poisoned request in a micro-batch
/// must not take down its neighbours, let alone the daemon.

#include <cstdint>
#include <vector>

#include "engine/engine.hpp"
#include "serve/design_cache.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace npd::serve {

struct ServiceConfig {
  /// Daemon base seed; requests without an explicit seed derive theirs
  /// from this and their id.
  std::uint64_t server_seed = 42;
  /// Worker threads for the shared JobQueue (0 = all cores).
  Index threads = 0;
  /// Resident designs kept in the LRU cache.
  Index design_cache_capacity = 64;
};

/// One service instance over one scenario registry.  `execute` is not
/// thread-safe (the daemon funnels every micro-batch through a single
/// batcher thread).  It counts into the metrics registry:
/// `serve.requests`, `serve.batches`, `serve.jobs` and
/// `serve.design_cache.{hit,miss}`, plus the `serve.batch.jobs` /
/// `serve.batch.requests` histograms.
class Service {
 public:
  Service(const engine::ScenarioRegistry& registry, ServiceConfig config);

  /// Execute one micro-batch.  Responses come back in request order,
  /// one per request; solve failures (unknown scenario, bad parameters,
  /// a throwing solver) become `status:"error"` responses.  Ping and
  /// shutdown requests are acknowledged without touching the engine.
  [[nodiscard]] std::vector<Json> execute(const std::vector<Request>& requests);

  /// Convenience for the unbatched path (and tests).
  [[nodiscard]] Json execute_one(const Request& request);

 private:
  /// Resolve via the design cache (miss = resolve defaults + packed
  /// overrides and insert).  Throws `std::invalid_argument` on unknown
  /// scenarios or bad parameters.
  const ResolvedDesign* resolve(const Request& request);

  const engine::ScenarioRegistry& registry_;
  ServiceConfig config_;
  DesignCache cache_;
};

}  // namespace npd::serve
