// npd_run — the unified batch experiment driver.
//
// Lists the registered scenarios, runs any subset of them by name on the
// engine's shared worker pool, and writes one JSON run report
// (schema npd.run_report/1, see src/engine/report.hpp) per batch.
//
//   npd_run --list
//   npd_run --scenarios fig5,abl7 --reps 2 --threads 4 --seed 42
//           --params fig5.max_n=1000,abl7.max_n=500 --out report.json
//
// Sharded execution (src/shard): `--shard i/N` plans the identical batch
// on every host, executes only the i-th LPT-balanced shard, and writes a
// partial report (schema npd.run_report_shard/1) that tools/npd_merge
// folds back into the full report — byte-identical to the single-process
// run.  `--cache DIR` replays finished jobs from a content-addressed
// result cache (and stores fresh ones), so crashed or re-run sweeps skip
// completed work.  `--dry-run` prints the planned job/shard assignment
// without executing anything.
//
// Per-scenario aggregates are bit-identical for every --threads value;
// only the perf stamps (wall clock, jobs/sec) vary.  --no-perf omits
// them, making the whole report byte-reproducible.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "engine/builtin_scenarios.hpp"
#include "engine/engine.hpp"
#include "shard/launcher.hpp"
#include "shard/result_cache.hpp"
#include "shard/runner.hpp"
#include "shard/shard_plan.hpp"
#include "shard/shard_report.hpp"
#include "solve/reconstructor.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/heartbeat.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/profiler.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace {

using namespace npd;

/// Parse "--shard i/N" (1-based i).  Returns the 0-based shard index and
/// the shard count.
struct ShardSpec {
  Index index = 0;  ///< 0-based
  Index count = 1;
};

ShardSpec parse_shard_spec(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("malformed --shard '" + text +
                                "' (expected i/N, e.g. 2/3)");
  }
  const long long i =
      parse_int_value("--shard index", text.substr(0, slash));
  const long long n =
      parse_int_value("--shard count", text.substr(slash + 1));
  // The count rail comes first so an absurd N (a pasted seed, say) is
  // rejected before it can size the shard plan; then the index must
  // select one of those N shards.  Both are usage errors, never asserts.
  shard::require_valid_proc_count("--shard count", n);
  if (i < 1 || i > n) {
    throw std::invalid_argument(
        "--shard '" + text + "': index out of range, need 1 <= i <= N "
        "(e.g. --shard 2/3 for the second of three shards)");
  }
  return ShardSpec{static_cast<Index>(i - 1), static_cast<Index>(n)};
}

void print_param_specs(const std::string& owner,
                       const std::vector<ParamSpec>& specs) {
  for (const ParamSpec& spec : specs) {
    (void)std::printf("      %s.%s = %s  (%s)\n", owner.c_str(),
                spec.name.c_str(), spec.default_value.c_str(),
                spec.help.c_str());
  }
}

void print_scenario_list(const engine::ScenarioRegistry& registry) {
  (void)std::printf("Registered scenarios:\n\n");
  for (const engine::Scenario* scenario : registry.list()) {
    (void)std::printf("  %-18s %s\n", scenario->name().c_str(),
                scenario->description().c_str());
    print_param_specs(scenario->name(), scenario->params());
  }
  (void)std::printf(
      "\nRun a subset with --scenarios a,b,c; override parameters with\n"
      "--params scenario.key=value[,scenario.key=value...].\n"
      "Solver-generic scenarios select their algorithm with\n"
      "--params <scenario>.solver=<name> (see --list-solvers).\n");
}

void print_solver_list() {
  (void)std::printf("Registered solvers:\n\n");
  for (const solve::SolverFactory* factory : solve::builtin_solvers().list()) {
    (void)std::printf("  %-20s %s\n", factory->name().c_str(),
                factory->description().c_str());
    print_param_specs(factory->name(), factory->params());
  }
  (void)std::printf(
      "\nSelect one per scenario with --params <scenario>.solver=<name>;\n"
      "pass its options with\n"
      "--params <scenario>.solver_params=key=value[;key=value...].\n");
}

/// `--dry-run`: the planned job set and its shard assignment, without
/// executing anything.
void print_dry_run(const engine::BatchPlan& plan,
                   const shard::ShardPlan& shards, const ShardSpec& spec,
                   bool sharded) {
  (void)std::printf("Planned batch (fingerprint %s):\n\n",
              shard::content_hash(plan.fingerprint()).c_str());
  ConsoleTable scenario_table({"scenario", "jobs", "cells", "cost"});
  for (const engine::PlannedScenario& s : plan.scenarios) {
    Index cells = 0;
    Index cost = 0;
    for (Index j = s.first_job; j < s.first_job + s.job_count; ++j) {
      const engine::Job& job = plan.jobs[static_cast<std::size_t>(j)];
      cells = std::max(cells, job.cell + 1);
      cost += job.cost_hint;
    }
    scenario_table.add_row({s.scenario->name(), std::to_string(s.job_count),
                            std::to_string(cells), std::to_string(cost)});
  }
  (void)std::fputs(scenario_table.render().c_str(), stdout);

  (void)std::printf("\nShard assignment (LPT over cost hints, %lld shard%s):\n\n",
              static_cast<long long>(shards.shard_count()),
              shards.shard_count() == 1 ? "" : "s");
  // Rendered from the plan's own balance summary so the table and any
  // machine consumer of to_json() can never disagree.
  const Json balance = shards.to_json();
  const Json& entries = balance.at("shards");
  ConsoleTable shard_table({"shard", "jobs", "load", "share", ""});
  for (std::size_t s = 0; s < entries.size(); ++s) {
    const Json& entry = entries.at(s);
    char share[32];
    (void)std::snprintf(share, sizeof(share), "%.1f%%",
                        100.0 * entry.at("load_share").as_double());
    shard_table.add_row(
        {std::to_string(entry.at("shard").as_int() + 1) + "/" +
             std::to_string(shards.shard_count()),
         std::to_string(entry.at("jobs").as_int()),
         std::to_string(entry.at("load").as_int()), share,
         sharded && static_cast<Index>(s) == spec.index ? "<- this shard"
                                                        : ""});
  }
  (void)std::fputs(shard_table.render().c_str(), stdout);
  (void)std::printf("\n%lld jobs planned; nothing executed (--dry-run).\n",
              static_cast<long long>(plan.jobs.size()));
}

int run(int argc, char** argv) {
  CliParser cli("npd_run",
                "Unified batch experiment driver: runs registered "
                "scenarios and writes a JSON run report.");
  const bool& list = cli.add_flag(
      "list", "list scenarios (with parameter defaults and help) and exit");
  const bool& list_solvers = cli.add_flag(
      "list-solvers",
      "list registered solvers (with option defaults and help) and exit");
  const std::string& scenarios_arg = cli.add_string(
      "scenarios", "all", "comma-separated scenario names, or 'all'");
  const long long& reps =
      cli.add_int("reps", 1, "repetitions per grid cell");
  const long long& seed =
      cli.add_int("seed", 42, "base seed for all derived job streams");
  const long long& threads = cli.add_int(
      "threads", 0,
      "worker threads (0 = all cores; aggregates are identical for any "
      "value)");
  const std::string& params_arg = cli.add_string(
      "params", "",
      "parameter overrides: scenario.key=value[,scenario.key=value...]");
  const std::string& out_path = cli.add_string(
      "out", "npd_run_report.json",
      "JSON report path ('-' or empty string streams the report to "
      "stdout)");
  const bool& no_perf = cli.add_flag(
      "no-perf",
      "omit wall-clock/throughput stamps (byte-reproducible report)");
  const std::string& shard_arg = cli.add_string(
      "shard", "",
      "run one shard of the batch: i/N (1-based), e.g. 2/3; writes a "
      "partial report for tools/npd_merge");
  const std::string& cache_dir = cli.add_string(
      "cache", "",
      "content-addressed result cache directory: replay finished jobs, "
      "store fresh ones (created if absent)");
  const bool& dry_run = cli.add_flag(
      "dry-run",
      "print the planned job/shard assignment and exit without executing");
  const bool& cache_gc = cli.add_flag(
      "cache-gc",
      "after the run, drop cache entries that do not belong to this "
      "batch (and enforce --cache-max-mb); requires --cache");
  const long long& cache_max_mb = cli.add_int(
      "cache-max-mb", 0,
      "size-cap the cache after the run: evict least-recently-stored "
      "entries (never this batch's) down to N MiB (0 = no cap)");
  const std::string& test_crash = cli.add_string(
      "test-crash", "",
      "fault injection for the launcher tests: if this marker file does "
      "not exist, create it and abort (exit 9) after executing the jobs "
      "but before writing the report");
  const std::string& trace_path = cli.add_string(
      "trace", "",
      "write a Chrome-trace JSON (schema npd.trace/1, loadable in "
      "Perfetto / chrome://tracing) of this run's spans; the report "
      "bytes are identical with or without it");
  const std::string& metrics_path = cli.add_string(
      "metrics", "",
      "write an npd.metrics/1 snapshot (counters, gauges, latency "
      "histograms) after the run; the report bytes are identical with "
      "or without it");
  const std::string& profile_path = cli.add_string(
      "profile", "",
      "sample this process with a SIGPROF profiler and write folded "
      "stacks (schema npd.profile/1) after the run; the report bytes "
      "are identical with or without it");
  const long long& profile_hz = cli.add_int(
      "profile-hz", 200, "sampling rate for --profile in samples/sec");
  const std::string& heartbeat_path = cli.add_string(
      "heartbeat", "",
      "write live progress (schema npd.heartbeat/1, temp+rename "
      "atomically) to this file while the jobs run; the feed behind "
      "npd_launch --watch");
  const long long& heartbeat_interval_ms = cli.add_int(
      "heartbeat-interval-ms", 200,
      "how often --heartbeat rewrites its file");
  const bool& quiet = cli.add_flag(
      "quiet", "suppress the summary tables and end-of-run lines "
      "(errors still print)");
  cli.parse(argc, argv);

  // Enable tracing/metrics before any instrumented thread exists (the
  // worker pool observes the flags when it starts running jobs).  The
  // heartbeat is a projection of the metrics registry, so it needs the
  // registry on too.
  if (!trace_path.empty()) {
    trace::set_enabled(true);
  }
  if (!metrics_path.empty() || !heartbeat_path.empty()) {
    metrics::set_enabled(true);
  }
  if (heartbeat_interval_ms < 1) {
    throw std::invalid_argument(
        "--heartbeat-interval-ms: need a positive interval");
  }
  bool profiling = false;
  if (!profile_path.empty()) {
    profiling = prof::start(static_cast<int>(profile_hz));
    if (!profiling) {
      (void)std::fprintf(stderr,
                         "npd_run: --profile: sampling profiler "
                         "unavailable; continuing without it\n");
    }
  }

  engine::ScenarioRegistry registry;
  engine::register_builtin_scenarios(registry);

  if (list) {
    print_scenario_list(registry);
    return 0;
  }
  if (list_solvers) {
    print_solver_list();
    return 0;
  }

  const engine::BatchRequest request = tools::make_batch_request(
      registry, scenarios_arg, reps, seed, threads, params_arg);

  const bool sharded = !shard_arg.empty();
  const ShardSpec spec =
      sharded ? parse_shard_spec(shard_arg) : ShardSpec{};
  tools::validate_cache_gc_flags(cache_gc, cache_max_mb, cache_dir);

  const Timer timer;
  const engine::BatchPlan plan = [&] {
    const trace::Span span("plan");
    return engine::plan_batch(registry, request);
  }();
  const shard::ShardPlan shards = shard::ShardPlan::build(plan, spec.count);

  if (dry_run) {
    print_dry_run(plan, shards, spec, sharded);
    return 0;
  }

  std::optional<shard::ResultCache> cache;
  if (!cache_dir.empty()) {
    cache.emplace(cache_dir, shard::content_hash(plan.fingerprint()));
  }
  const auto collect_cache = [&](FILE* summary) {
    tools::collect_cache_gc(plan, cache_dir, cache_gc, cache_max_mb,
                            summary);
  };

  // Execute this process's slice: the selected shard, or — unsharded —
  // every job (through the same cache-aware path, so --cache works for
  // plain runs too).
  std::vector<Index> job_indices;
  if (sharded) {
    job_indices = shards.jobs_of(spec.index);
  } else {
    job_indices.reserve(plan.jobs.size());
    for (Index j = 0; j < static_cast<Index>(plan.jobs.size()); ++j) {
      job_indices.push_back(j);
    }
  }
  // Live progress feed: the workers' registry counters, projected into
  // the heartbeat file by a background thread (temp+rename, so readers
  // never see a torn write).  Purely observational — the run computes
  // the same bytes with or without it.
  std::optional<heartbeat::PeriodicWriter> beat_writer;
  if (!heartbeat_path.empty()) {
    beat_writer.emplace(
        heartbeat_path, static_cast<double>(heartbeat_interval_ms),
        heartbeat::heartbeat_render(
            spec.index, spec.count,
            static_cast<std::int64_t>(job_indices.size()),
            {{"jobs.executed", "jobs.replayed"}, "cache.hits",
             "cache.misses"}));
  }

  const shard::RunJobsOutcome outcome = [&] {
    const trace::Span span("run_jobs");
    return shard::run_jobs(plan, job_indices, request.config.threads,
                           cache.has_value() ? &*cache : nullptr);
  }();

  // Deterministic fault injection for the launcher's restart tests: the
  // O_EXCL create makes exactly one process (across all shards sharing
  // the marker) take the crash, after its jobs hit the cache but before
  // its report exists — the worst-timed kill the supervisor must absorb.
  if (!test_crash.empty()) {
    const int marker_fd =
        ::open(test_crash.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (marker_fd >= 0) {
      ::close(marker_fd);
      (void)std::fprintf(stderr,
                   "npd_run: --test-crash: injected crash before the "
                   "report write (marker %s created)\n",
                   test_crash.c_str());
      return 9;
    }
  }

  const bool to_stdout = tools::writes_to_stdout(out_path);
  FILE* summary = tools::summary_stream(out_path);

  // The machine-greppable end-of-run line (satisfied with or without
  // --trace): job count, cache hit/executed split, wall time.  Goes to
  // stderr so it survives `--out -` report streaming.
  const auto stderr_summary = [&] {
    if (quiet) {
      return;
    }
    (void)std::fprintf(
        stderr, "npd_run: %lld jobs, %lld cache hits, %lld executed, "
        "%.2f s\n",
        static_cast<long long>(outcome.results.size()),
        static_cast<long long>(outcome.cache_hits),
        static_cast<long long>(outcome.executed), timer.elapsed_seconds());
  };

  // Flush after every instrumented thread has joined (run_jobs joins its
  // workers; the heartbeat writer only reads counters) and after the
  // report is on disk — the trace is telemetry about the run, never a
  // participant in it.
  const auto write_trace = [&]() -> bool {
    if (trace_path.empty()) {
      return true;
    }
    const trace::TraceSnapshot snapshot = trace::flush();
    if (!tools::write_output(trace::chrome_trace_json(snapshot).dump(2),
                             trace_path)) {
      return false;
    }
    if (!quiet) {
      (void)std::fprintf(stderr, "[trace written to %s]\n",
                         trace_path.c_str());
    }
    return true;
  };

  // Same out-of-band contract as the trace: the snapshot and profile
  // are written after the report is on disk, and the report bytes never
  // depend on them.
  const auto write_observability = [&]() -> bool {
    bool ok = true;
    if (profiling) {
      prof::stop();
      const prof::Profile profile = prof::collect();
      if (tools::write_output(prof::profile_json(profile).dump(2),
                              profile_path)) {
        if (!quiet) {
          (void)std::fprintf(stderr,
                             "[profile written to %s (%lld samples)]\n",
                             profile_path.c_str(),
                             static_cast<long long>(profile.samples));
        }
      } else {
        ok = false;
      }
    }
    if (!metrics_path.empty()) {
      if (tools::write_output(
              metrics::snapshot_json(metrics::snapshot()).dump(2),
              metrics_path)) {
        if (!quiet) {
          (void)std::fprintf(stderr, "[metrics written to %s]\n",
                             metrics_path.c_str());
        }
      } else {
        ok = false;
      }
    }
    return ok;
  };

  if (sharded) {
    {
      const trace::Span span("report");
      const shard::ShardRunReport report = shard::make_shard_report(
          plan, shards, spec.index, outcome.results);
      const std::string json =
          shard::shard_report_to_json(report, !no_perf).dump(2);
      if (!tools::write_output(json, out_path)) {
        return 1;
      }
    }
    if (!quiet) {
      (void)std::fprintf(summary,
                   "shard %lld/%lld: %lld of %lld jobs (%lld cache hits, "
                   "%lld executed) in %.2f s\n",
                   static_cast<long long>(spec.index + 1),
                   static_cast<long long>(spec.count),
                   static_cast<long long>(outcome.results.size()),
                   static_cast<long long>(plan.jobs.size()),
                   static_cast<long long>(outcome.cache_hits),
                   static_cast<long long>(outcome.executed),
                   timer.elapsed_seconds());
      if (!to_stdout) {
        (void)std::fprintf(summary, "[partial report written to %s — merge "
                              "with npd_merge]\n",
                     out_path.c_str());
      }
    }
    collect_cache(summary);
    stderr_summary();
    const bool trace_ok = write_trace();
    const bool observability_ok = write_observability();
    return trace_ok && observability_ok ? 0 : 1;
  }

  {
    const trace::Span span("report");
    engine::RunReport report =
        engine::build_report(plan, outcome.results, request.config.threads);
    engine::stamp_perf(report, timer.elapsed_seconds());
    const std::string json = report.to_json(!no_perf).dump(2);
    if (!tools::write_output(json, out_path)) {
      return 1;
    }

    if (!quiet) {
      ConsoleTable table({"scenario", "jobs", "cells", "job seconds"});
      for (const engine::ScenarioRunReport& scenario : report.scenarios) {
        const Json* cells = scenario.aggregates.find("cells");
        table.add_row({scenario.name, std::to_string(scenario.jobs),
                       std::to_string(cells != nullptr ? cells->size() : 0),
                       std::to_string(scenario.job_seconds)});
      }
      (void)std::fputs(table.render().c_str(), summary);
      (void)std::fprintf(summary, "\n%lld jobs in %.2f s (%.1f jobs/sec)",
                   static_cast<long long>(report.total_jobs),
                   report.wall_seconds, report.jobs_per_second);
      if (cache.has_value()) {
        (void)std::fprintf(summary, ", %lld cache hits",
                     static_cast<long long>(outcome.cache_hits));
      }
      (void)std::fprintf(summary, "\n");
      if (!to_stdout) {
        (void)std::fprintf(summary, "[report written to %s]\n",
                           out_path.c_str());
      }
    }
  }
  collect_cache(summary);
  stderr_summary();
  const bool trace_ok = write_trace();
  const bool observability_ok = write_observability();
  return trace_ok && observability_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    (void)std::fprintf(stderr, "npd_run: %s\n", error.what());
    return 2;
  }
}
