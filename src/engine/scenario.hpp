#pragma once

/// \file scenario.hpp
/// The scenario registry: every experiment the batch engine can run is a
/// named `Scenario` with typed parameters.
///
/// A scenario does two things, both deterministically:
///   * expand its parameter values into a list of `Job`s (one per
///     (grid cell, repetition)), deriving each job's seed from the
///     engine's base seed so results are bit-identical for any thread
///     count and any co-scheduled scenario mix;
///   * fold the per-job metrics back into an aggregate JSON section of
///     the run report (typically via `aggregate_cells`, which routes
///     every metric through `harness::stats`).
///
/// Scenarios are registered by name in a `ScenarioRegistry`; the
/// `npd_run` driver (and `npd_serve`) select them with
/// `--scenarios a,b,c` and override parameters with
/// `--params scenario.key=value`.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/job.hpp"
#include "util/json.hpp"
#include "util/params.hpp"
#include "util/types.hpp"

namespace npd::engine {

/// Typed parameter machinery, shared with the solver registry (see
/// util/params.hpp — the definitions moved there so `solve` can reuse
/// them without depending on the engine).
using npd::ParamSpec;
using ScenarioParams = npd::ParamSet;

/// Engine-wide run configuration shared by every scenario in a batch.
struct EngineConfig {
  std::uint64_t seed = 42;
  /// Repetitions per grid cell.
  Index reps = 1;
  /// Worker threads (0 = all cores, 1 = sequential).
  Index threads = 0;
};

/// One registered experiment.
class Scenario {
 public:
  virtual ~Scenario() = default;

  Scenario() = default;
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Registry key (also the `--scenarios` name).
  [[nodiscard]] virtual std::string name() const = 0;

  /// One-line description for `npd_run --list`.
  [[nodiscard]] virtual std::string description() const = 0;

  /// Typed parameters this scenario accepts (defaults included).
  [[nodiscard]] virtual std::vector<ParamSpec> params() const { return {}; }

  /// Expand into jobs.  Must be a pure function of (config, params):
  /// job seeds may depend only on the base seed and the job's own
  /// coordinates, never on execution order.
  [[nodiscard]] virtual std::vector<Job> make_jobs(
      const EngineConfig& config, const ScenarioParams& params) const = 0;

  /// Fold this scenario's per-job results (submission order) into the
  /// aggregate section of the run report.  Must not include timing.
  [[nodiscard]] virtual Json aggregate(const std::vector<JobResult>& results,
                                       const ScenarioParams& params) const = 0;
};

/// Name-keyed scenario collection.
class ScenarioRegistry {
 public:
  /// Register a scenario; duplicate names are a contract violation.
  void add(std::unique_ptr<Scenario> scenario);

  /// Lookup by name; nullptr when absent.
  [[nodiscard]] const Scenario* find(std::string_view name) const;

  /// All scenarios, sorted by name.
  [[nodiscard]] std::vector<const Scenario*> list() const;

 private:
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

/// Shared aggregation helper: group `results` by cell and summarize every
/// metric through `harness::stats` (count, mean, stddev, min, q1, median,
/// q3, max, p95, p99).  `cell_meta(cell)` supplies the cell's identity
/// columns (n, channel, m, ...) as a JSON object the metric summaries are
/// merged into.  Returns `{"cells": [ ... ]}` with cells in index order.
[[nodiscard]] Json aggregate_cells(
    const std::vector<JobResult>& results,
    const std::function<Json(Index cell)>& cell_meta);

}  // namespace npd::engine
