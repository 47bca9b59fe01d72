#include "serve/service.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "engine/job.hpp"
#include "util/metrics.hpp"

namespace npd::serve {

namespace {

/// First-failure capture shared between a request's wrapped jobs and
/// the batch executor.  Everything is guarded by the mutex; the worker
/// threads that write it are joined (inside `JobQueue::run`) before the
/// executor reads it.
struct JobFailure {
  std::mutex mutex;
  bool failed = false;
  std::string message;

  void note(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!failed) {
      failed = true;
      message = what;
    }
  }
};

/// One solve request's slice of the micro-batch.
struct PendingSolve {
  const Request* request = nullptr;
  /// Final response once known (control acks and resolve errors are
  /// final before the queue runs).
  Json response;
  bool done = false;

  std::uint64_t seed = 0;
  std::string config_hash;
  engine::BatchPlan plan;
  Index first_result = 0;
  std::shared_ptr<JobFailure> failure;
};

}  // namespace

Service::Service(const engine::ScenarioRegistry& registry,
                 ServiceConfig config)
    : registry_(registry),
      config_(config),
      cache_(config.design_cache_capacity) {}

const ResolvedDesign* Service::resolve(const Request& request) {
  const std::string key = design_cache_key(request.scenario, request.params);
  if (const ResolvedDesign* hit = cache_.find(key)) {
    metrics::counter("serve.design_cache.hit");
    return hit;
  }
  metrics::counter("serve.design_cache.miss");

  const engine::Scenario* scenario = registry_.find(request.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario '" + request.scenario +
                                "'");
  }
  // Defaults, then packed overrides — the same resolution
  // `engine::plan_batch` performs, so a resident design and a fresh
  // plan are interchangeable.
  engine::ScenarioParams params(scenario->params());
  params.set_packed(request.params);
  ResolvedDesign design{scenario, std::move(params), ""};
  design.config_hash = config_hash(request.scenario, design.params);
  return cache_.insert(key, std::move(design));
}

std::vector<Json> Service::execute(const std::vector<Request>& requests) {
  std::vector<PendingSolve> pending(requests.size());
  engine::JobQueue queue;
  Index solve_count = 0;

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    PendingSolve& entry = pending[i];
    entry.request = &request;

    if (request.op != Op::Solve) {
      entry.response = make_control_response(request);
      entry.done = true;
      continue;
    }
    ++solve_count;
    entry.seed = request.seed.has_value()
                     ? *request.seed
                     : derive_request_seed(config_.server_seed, request.id);
    try {
      // The design pointer is only valid until the next cache insert,
      // so everything needed later is copied out of it here.
      const ResolvedDesign* design = resolve(request);
      entry.config_hash = design->config_hash;

      const engine::EngineConfig config{entry.seed, request.reps,
                                        config_.threads};
      std::vector<engine::Job> jobs =
          design->scenario->make_jobs(config, design->params);
      entry.plan.seed = entry.seed;
      entry.plan.reps = request.reps;
      entry.plan.scenarios.push_back(engine::PlannedScenario{
          design->scenario, design->params, 0,
          static_cast<Index>(jobs.size())});
      entry.plan.jobs = std::move(jobs);

      entry.failure = std::make_shared<JobFailure>();
      entry.first_result = queue.size();
      for (engine::Job& job : entry.plan.jobs) {
        engine::Job queued = job;  // plan keeps its shape for build_report
        auto failure = entry.failure;
        auto inner = std::move(queued.run);
        // A throwing solve fails this request, not the whole batch: the
        // queue would otherwise rethrow and poison every neighbour.
        queued.run = [inner, failure](rand::Rng& rng) -> engine::Metrics {
          try {
            return inner(rng);
          } catch (const std::exception& error) {
            failure->note(error.what());
            return {};
          }
        };
        (void)queue.push(std::move(queued));
      }
    } catch (const std::exception& error) {
      entry.response = make_error_response(request.id, error.what());
      entry.done = true;
    }
  }

  const Index batch_jobs = queue.size();
  std::vector<engine::JobResult> results;
  if (batch_jobs > 0) {
    results = queue.run(config_.threads);
    metrics::counter("serve.batches");
    metrics::counter("serve.jobs", batch_jobs);
    metrics::observe("serve.batch.jobs", static_cast<double>(batch_jobs));
  }
  if (solve_count > 0) {
    metrics::counter("serve.requests", solve_count);
    metrics::observe("serve.batch.requests",
                     static_cast<double>(solve_count));
  }

  std::vector<Json> responses;
  responses.reserve(requests.size());
  for (PendingSolve& entry : pending) {
    if (entry.done) {
      responses.push_back(std::move(entry.response));
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(entry.failure->mutex);
      if (entry.failure->failed) {
        responses.push_back(make_error_response(
            entry.request->id, "job failed: " + entry.failure->message));
        continue;
      }
    }
    const auto first =
        results.begin() + static_cast<std::ptrdiff_t>(entry.first_result);
    const std::vector<engine::JobResult> slice(
        first, first + static_cast<std::ptrdiff_t>(entry.plan.jobs.size()));
    const engine::RunReport report =
        engine::build_report(entry.plan, slice, config_.threads);

    double job_seconds = 0.0;
    for (const engine::JobResult& result : slice) {
      job_seconds += result.wall_seconds;
    }

    Json response = Json::object();
    response.set("schema", std::string(kResponseSchema));
    response.set("id", entry.request->id);
    response.set("status", "ok");
    response.set("scenario", entry.request->scenario);
    response.set("seed", static_cast<std::int64_t>(entry.seed));
    response.set("config_hash", entry.config_hash);
    response.set("report", report.to_json(false));
    Json perf = Json::object();
    perf.set("batch_requests", solve_count);
    perf.set("batch_jobs", batch_jobs);
    perf.set("job_seconds", job_seconds);
    response.set("perf", std::move(perf));
    responses.push_back(std::move(response));
  }
  return responses;
}

Json Service::execute_one(const Request& request) {
  std::vector<Json> responses = execute({request});
  return std::move(responses.front());
}

}  // namespace npd::serve
