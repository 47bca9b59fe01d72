/// \file driver.cpp
/// Driver of the repository benchmark.  It runs one workload and prints
/// its raw measurements (per-batch and per-job times, per-request
/// timestamps, per-layer sums) as one JSON document on stdout;
/// perfbench/run.py turns those samples into the named metrics and
/// checks the outputs.
///
///   perfbench_driver plan  --workload W --seed S
///   perfbench_driver batch --workload W --seed S --seconds T --report F
///   perfbench_driver trace --workload W --seed S
///   perfbench_driver serve --seed S --seconds T --serve-bin B
///                          --socket P --log L [--trace 1]
///
/// (`perfbench_driver <mode> --help` lists the options.)
///
/// Every layer is timed from outside, through its public functions; the
/// program under test is not instrumented.

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "core/instance.hpp"
#include "engine/builtin_scenarios.hpp"
#include "engine/engine.hpp"
#include "harness/sweeps.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/pooling_graph.hpp"
#include "rand/rng.hpp"
#include "serve/protocol.hpp"
#include "solve/channel_spec.hpp"
#include "solve/design_spec.hpp"
#include "solve/reconstructor.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace {

using npd::Index;
using npd::Json;
namespace core = npd::core;
namespace engine = npd::engine;
namespace net = npd::net;
namespace pooling = npd::pooling;
namespace solve = npd::solve;
using Clock = std::chrono::steady_clock;

/// Engine workers of every workload (the daemon's --threads for serve).
constexpr Index kWorkers = 2;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --------------------------------------------------------------- options

/// The command line, shared by every mode; each mode reads what it needs.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string report;
  bool trace = false;
  std::string serve_bin;
  std::string socket;
  std::string log;
};

// ------------------------------------------------------------- workloads

/// A batch workload: one engine scenario at fixed parameters.
struct BatchWorkload {
  std::string name;
  std::string scenario;
  Index reps = 1;
  std::vector<std::pair<std::string, std::string>> params;
  /// Batches every run makes; success_rate is taken over exactly these,
  /// so it is a pure function of the run's seed.
  int seed_batches = 1;
  /// Least exact-recovery rate over the jobs the paper calls solvable.
  double floor = 1.0;
};

const BatchWorkload& batch_workload(const std::string& name) {
  static const std::vector<BatchWorkload> workloads = {
      {"fig6_paper", "fig6", 4, {}, 4, 0.95},
      {"atlas_sparse",
       "phase_atlas",
       16,
       {{"n_lo", "1000"},
        {"n_hi", "1000"},
        {"designs", "regular:6;wr:0.05"},
        {"solvers", "greedy;amp"},
        {"channels", "z:0.1;bitflip:0.05:0.01"},
        {"m_fracs", "0.6;1;1.4"}},
       8,
       0.7},
  };
  for (const BatchWorkload& workload : workloads) {
    if (workload.name == name) {
      return workload;
    }
  }
  throw std::invalid_argument("unknown batch workload '" + name + "'");
}

engine::BatchRequest batch_request(const BatchWorkload& workload,
                                   std::uint64_t seed) {
  engine::BatchRequest request;
  request.scenario_names = {workload.scenario};
  request.config.seed = seed;
  request.config.reps = workload.reps;
  request.config.threads = kWorkers;
  for (const auto& [name, value] : workload.params) {
    request.overrides.push_back({workload.scenario, name, value});
  }
  return request;
}

/// Seed of the run's i-th batch.  Every batch of a run has its own seed;
/// batch 0 runs at the run seed itself, so its report is the one
/// `npd_run --seed <seed>` writes.
std::uint64_t batch_seed(std::uint64_t seed, int i) {
  return i == 0 ? seed : npd::rand::Rng(seed).derive(i).seed();
}

// ------------------------------------------------------------- job specs

/// The inputs of one planned job, decoded from its scenario's parameters
/// and cell index the way the scenario's `make_jobs` derives them.
struct JobSpec {
  Index n = 0;
  Index k = 0;
  Index m = 0;
  pooling::GraphDesign design;
  std::function<std::unique_ptr<npd::noise::NoiseChannel>()> make_channel;
  std::shared_ptr<const solve::Reconstructor> solver;
  /// AMP, or else greedy: the only solvers the workloads run.
  bool amp = false;
  /// In a region the paper calls solvable (the success floor applies).
  bool solvable = false;
  std::uint64_t seed = 0;
};

Index threshold_m(Index n, double theta, double frac, double eps,
                  const solve::ChannelSpec& spec) {
  const auto m =
      static_cast<Index>(std::ceil(frac * spec.theory_m(n, theta, eps)));
  return m < 1 ? 1 : m;
}

std::shared_ptr<const solve::Reconstructor> make_solver(
    const std::string& name, const std::string& params = "") {
  return solve::builtin_solvers().make(name, params);
}

std::vector<JobSpec> describe_jobs(const engine::BatchPlan& plan) {
  std::vector<JobSpec> specs(plan.jobs.size());
  for (const engine::PlannedScenario& planned : plan.scenarios) {
    const npd::ParamSet& params = planned.params;
    const std::string scenario = planned.scenario->name();
    std::function<void(const engine::Job&, JobSpec&)> fill;
    if (scenario == "fig6") {
      const auto n = static_cast<Index>(params.get_int("n"));
      const Index k = pooling::sublinear_k(n, params.get_double("theta"));
      const auto m_step = static_cast<Index>(params.get_int("m_step"));
      const std::vector<Index> ms = npd::harness::linear_grid(
          m_step, static_cast<Index>(params.get_int("m_max")), m_step);
      const std::vector<double> ps = {0.1, 0.3, 0.5};
      const std::vector<std::string> names =
          npd::split_list(params.get_string("solvers"), ';');
      std::vector<std::shared_ptr<const solve::Reconstructor>> solvers;
      for (const std::string& name : names) {
        solvers.push_back(make_solver(name));
      }
      const pooling::GraphDesign design =
          solve::parse_design_spec(params.get_string("design"))
              .instantiate(n);
      fill = [=](const engine::Job& job, JobSpec& spec) {
        const auto cell = static_cast<std::size_t>(job.cell);
        const std::size_t mi = cell % ms.size();
        const std::size_t si = (cell / ms.size()) % names.size();
        const std::size_t pi = cell / ms.size() / names.size();
        const double p = ps[pi];
        spec.n = n;
        spec.k = k;
        spec.m = ms[mi];
        spec.design = design;
        spec.make_channel = [p] { return npd::noise::make_z_channel(p); };
        spec.solver = solvers[si];
        spec.amp = names[si] == "amp";
        spec.solvable =
            spec.m >= 300 && (spec.amp || (names[si] == "greedy" && pi == 0));
      };
    } else if (scenario == "phase_atlas" || scenario == "solver_sweep") {
      const bool atlas = scenario == "phase_atlas";
      const double theta = params.get_double("theta");
      const double eps = params.get_double("eps");
      const std::vector<Index> ns = npd::harness::log_grid(
          static_cast<Index>(params.get_int("n_lo")),
          static_cast<Index>(params.get_int("n_hi")),
          static_cast<Index>(params.get_int("n_ppd")));
      std::vector<solve::DesignSpec> designs;
      std::vector<std::string> names;
      std::vector<std::shared_ptr<const solve::Reconstructor>> solvers;
      std::vector<solve::ChannelSpec> channels;
      std::vector<double> fracs;
      if (atlas) {
        for (const std::string& spec :
             npd::split_list(params.get_string("designs"), ';')) {
          designs.push_back(solve::parse_design_spec(spec));
        }
        names = npd::split_list(params.get_string("solvers"), ';');
        for (const std::string& name : names) {
          solvers.push_back(make_solver(name));
        }
        for (const std::string& spec :
             npd::split_list(params.get_string("channels"), ';')) {
          channels.push_back(solve::parse_channel_spec(spec));
        }
        for (const std::string& frac :
             npd::split_list(params.get_string("m_fracs"), ';')) {
          fracs.push_back(npd::parse_double_value("m_fracs", frac));
        }
      } else {
        designs.push_back(
            solve::parse_design_spec(params.get_string("design")));
        names.push_back(params.get_string("solver"));
        solvers.push_back(
            make_solver(names.back(), params.get_string("solver_params")));
        channels.push_back(
            solve::parse_channel_spec(params.get_string("channel")));
        fracs.push_back(params.get_double("m_frac"));
      }
      fill = [=](const engine::Job& job, JobSpec& spec) {
        // Row-major over (design, solver, channel, n, m_frac); the
        // solver_sweep grid is the degenerate case with only n varying.
        auto rest = static_cast<std::size_t>(job.cell);
        const std::size_t fi = rest % fracs.size();
        rest /= fracs.size();
        const std::size_t ni = rest % ns.size();
        rest /= ns.size();
        const std::size_t ci = rest % channels.size();
        rest /= channels.size();
        const std::size_t si = rest % names.size();
        const std::size_t di = rest / names.size();
        const solve::ChannelSpec channel = channels[ci];
        spec.n = ns[ni];
        spec.k = pooling::sublinear_k(spec.n, theta);
        spec.m = threshold_m(spec.n, theta, fracs[fi], eps, channel);
        spec.design = designs[di].instantiate(spec.n);
        spec.make_channel = [channel] { return channel.make(); };
        spec.solver = solvers[si];
        spec.amp = names[si] == "amp";
        spec.solvable = atlas && spec.amp && fracs[fi] >= 1.4;
      };
    } else {
      throw std::invalid_argument("no job decoder for scenario " + scenario);
    }
    for (Index j = planned.first_job; j < planned.first_job + planned.job_count;
         ++j) {
      const engine::Job& job = plan.jobs[static_cast<std::size_t>(j)];
      JobSpec& spec = specs[static_cast<std::size_t>(j)];
      fill(job, spec);
      spec.seed = job.seed;
    }
  }
  return specs;
}

// --------------------------------------------------------- engine passes

double job_success(const engine::JobResult& result) {
  for (const engine::Metric& metric : result.metrics) {
    if (metric.name == "success") {
      return metric.value;
    }
  }
  return -1.0;
}

/// One untraced execution of a set of plans, as `engine::run_batch` runs
/// them, except that a job which throws is counted instead of aborting
/// the batch.
struct EngineRun {
  std::vector<engine::JobResult> results;
  /// Seconds from submitting the jobs until each one finished.
  std::vector<double> done_s;
  std::vector<engine::RunReport> reports;
  Index failed = 0;
  double run_s = 0.0;
  double report_s = 0.0;
};

EngineRun execute(const std::vector<engine::BatchPlan>& plans,
                  Index workers = kWorkers) {
  EngineRun run;
  std::atomic<Index> failed{0};
  std::size_t total = 0;
  for (const engine::BatchPlan& plan : plans) {
    total += plan.jobs.size();
  }
  run.done_s.assign(total, 0.0);
  Clock::time_point run_start;
  engine::JobQueue queue;
  for (const engine::BatchPlan& plan : plans) {
    for (const engine::Job& job : plan.jobs) {
      engine::Job guarded = job;
      // Each job writes only its own slot of done_s.
      double* done = &run.done_s[static_cast<std::size_t>(queue.size())];
      guarded.run = [inner = job.run, &failed, &run_start,
                     done](npd::rand::Rng& rng) {
        engine::Metrics metrics;
        try {
          metrics = inner(rng);
        } catch (const std::exception&) {
          failed.fetch_add(1);
        }
        *done = since(run_start);
        return metrics;
      };
      (void)queue.push(std::move(guarded));
    }
  }
  run_start = Clock::now();
  run.results = queue.run(workers);
  run.run_s = since(run_start);
  run.failed = failed.load();
  const Clock::time_point report_start = Clock::now();
  std::size_t first = 0;
  for (const engine::BatchPlan& plan : plans) {
    const auto begin = run.results.begin() + static_cast<std::ptrdiff_t>(first);
    const std::vector<engine::JobResult> slice(
        begin, begin + static_cast<std::ptrdiff_t>(plan.jobs.size()));
    first += plan.jobs.size();
    if (run.failed == 0) {
      run.reports.push_back(engine::build_report(plan, slice, workers));
    }
  }
  run.report_s = since(report_start);
  return run;
}

double peak_rss_mb() {
  rusage usage{};
  (void)::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Json number_array(const std::vector<double>& values) {
  Json array = Json::array();
  for (const double value : values) {
    array.push_back(value);
  }
  return array;
}

// ----------------------------------------------------------------- batch

int run_plan(const Options& opt) {
  const BatchWorkload& workload = batch_workload(opt.workload);
  engine::ScenarioRegistry registry;
  engine::register_builtin_scenarios(registry);
  const engine::BatchPlan plan = engine::plan_batch(
      registry, batch_request(workload, opt.seed));
  std::printf("planned %zu jobs\n", plan.jobs.size());
  std::fflush(stdout);
  return 0;
}

int run_batch(const Options& opt) {
  const BatchWorkload& workload = batch_workload(opt.workload);
  const std::uint64_t seed = opt.seed;
  engine::ScenarioRegistry registry;
  engine::register_builtin_scenarios(registry);

  Json batches = Json::array();
  std::vector<double> done_ms;
  std::vector<double> job_large;
  Index attempted = 0;
  Index failed = 0;
  Index success_jobs = 0;
  double success_sum = 0.0;
  Index floor_jobs = 0;
  double floor_sum = 0.0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < workload.seed_batches || since(start) < opt.seconds;
       ++i) {
    const Clock::time_point batch_start = Clock::now();
    std::vector<engine::BatchPlan> plans;
    plans.push_back(engine::plan_batch(
        registry, batch_request(workload, batch_seed(seed, i))));
    const EngineRun run = execute(plans);
    const double wall_s = since(batch_start);

    const engine::BatchPlan& plan = plans.front();
    const std::vector<JobSpec> specs = describe_jobs(plan);
    std::vector<Index> ms;
    for (const JobSpec& spec : specs) {
      ms.push_back(spec.m);
    }
    const auto middle = ms.begin() + static_cast<std::ptrdiff_t>(ms.size() / 2);
    std::nth_element(ms.begin(), middle, ms.end());
    const Index median_m = *middle;
    for (std::size_t j = 0; j < run.results.size(); ++j) {
      done_ms.push_back(run.done_s[j] * 1e3);
      job_large.push_back(specs[j].m > median_m ? 1.0 : 0.0);
      if (i < workload.seed_batches) {
        const double success = job_success(run.results[j]);
        success_sum += success;
        ++success_jobs;
        if (specs[j].solvable) {
          floor_sum += success;
          ++floor_jobs;
        }
      }
    }
    attempted += static_cast<Index>(plan.jobs.size());
    failed += run.failed;
    if (i == 0 && run.failed == 0) {
      std::ofstream out(opt.report);
      out << run.reports.front().to_json(false).dump(2) << '\n';
    }
    Json batch = Json::object();
    batch.set("seed", std::to_string(batch_seed(seed, i)))
        .set("wall_s", wall_s)
        .set("plan_jobs", static_cast<std::int64_t>(plan.jobs.size()))
        .set("results", static_cast<std::int64_t>(run.results.size()))
        .set("failed", run.failed);
    batches.push_back(std::move(batch));
  }

  Json out = Json::object();
  out.set("mode", "batch")
      .set("workers", kWorkers)
      .set("batches", std::move(batches))
      .set("attempted", attempted)
      .set("failed", failed)
      .set("done_ms", number_array(done_ms))
      .set("job_large", number_array(job_large))
      .set("success_jobs", success_jobs)
      .set("success_sum", success_sum)
      .set("floor_jobs", floor_jobs)
      .set("floor_sum", floor_sum)
      .set("floor_min", workload.floor)
      .set("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ----------------------------------------------------------------- trace

/// Assert that the layer-by-layer construction the replay times builds
/// the same instance as `core::make_instance` for this job's seed.
void check_composition(const JobSpec& spec) {
  const auto channel = spec.make_channel();
  npd::rand::Rng whole(spec.seed);
  npd::rand::Rng layered(spec.seed);
  const core::Instance expect =
      core::make_instance(spec.n, spec.k, spec.m, spec.design, *channel, whole);
  const pooling::GroundTruth truth =
      pooling::make_ground_truth(spec.n, spec.k, layered);
  const pooling::PoolingGraph graph =
      pooling::build_design_graph(spec.n, spec.m, spec.design, layered);
  const std::vector<double> results =
      core::measure_all(graph, truth, *channel, layered);
  bool same = truth.bits == expect.truth.bits && results == expect.results &&
              graph.num_queries() == expect.graph.num_queries() &&
              graph.num_edges() == expect.graph.num_edges() &&
              whole() == layered();
  for (Index j = 0; same && j < graph.num_queries(); ++j) {
    same = std::ranges::equal(graph.query_multiset(j),
                              expect.graph.query_multiset(j));
  }
  if (!same) {
    throw std::runtime_error(
        "layer composition differs from core::make_instance");
  }
}

/// Per-layer sums over a traced replay, in seconds.
struct LayerSums {
  Index jobs = 0;
  double truth = 0.0;
  double graph = 0.0;
  double measure = 0.0;
  double greedy = 0.0;
  double amp = 0.0;
  double eval = 0.0;
  double total = 0.0;
  Index edges = 0;
  Index amp_jobs = 0;
  Index amp_iterations = 0;
  Index amp_converged = 0;
  Index mismatches = 0;
};

void replay(const JobSpec& spec, double expected_success, LayerSums& sums) {
  const Clock::time_point t0 = Clock::now();
  const auto channel = spec.make_channel();
  npd::rand::Rng rng(spec.seed);
  core::Instance instance;
  const Clock::time_point t1 = Clock::now();
  instance.truth = pooling::make_ground_truth(spec.n, spec.k, rng);
  const Clock::time_point t2 = Clock::now();
  instance.graph =
      pooling::build_design_graph(spec.n, spec.m, spec.design, rng);
  const Clock::time_point t3 = Clock::now();
  instance.results =
      core::measure_all(instance.graph, instance.truth, *channel, rng);
  const Clock::time_point t4 = Clock::now();
  const solve::SolveResult result = spec.solver->solve(instance, *channel, rng);
  const Clock::time_point t5 = Clock::now();
  const bool success = core::exact_success(result.estimate, instance.truth);
  [[maybe_unused]] const double overlap =
      core::overlap(result.estimate, instance.truth);
  [[maybe_unused]] const Index errors =
      core::hamming_errors(result.estimate, instance.truth);
  const Clock::time_point t6 = Clock::now();

  const auto span = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  ++sums.jobs;
  sums.truth += span(t1, t2);
  sums.graph += span(t2, t3);
  sums.measure += span(t3, t4);
  const double solve_s = span(t4, t5);
  if (spec.amp) {
    sums.amp += solve_s;
    ++sums.amp_jobs;
    sums.amp_iterations += result.iterations;
    sums.amp_converged += result.converged ? 1 : 0;
  } else {
    sums.greedy += solve_s;
  }
  sums.eval += span(t5, t6);
  sums.total += span(t0, t6);
  sums.edges += instance.graph.num_edges();
  if ((success ? 1.0 : 0.0) != expected_success) {
    ++sums.mismatches;
  }
}

/// The traced study of a set of plans: an untraced engine pass on
/// `kWorkers` workers and one on a single worker (the base of the trace
/// overhead), the layer-composition check, then a sequential replay that
/// times every public call of every job.
Json layer_study(const std::vector<engine::BatchPlan>& plans,
                 const std::vector<double>& plan_s) {
  const EngineRun run = execute(plans);
  const EngineRun serial = execute(plans, 1);
  if (run.failed != 0 || serial.failed != 0) {
    throw std::runtime_error("engine pass: " +
                             std::to_string(run.failed + serial.failed) +
                             " jobs threw");
  }
  std::vector<JobSpec> specs;
  for (const engine::BatchPlan& plan : plans) {
    std::vector<JobSpec> plan_specs = describe_jobs(plan);
    for (JobSpec& spec : plan_specs) {
      specs.push_back(std::move(spec));
    }
  }
  std::vector<double> job_s;
  std::vector<double> job_ok;
  for (const engine::JobResult& result : run.results) {
    job_s.push_back(result.wall_seconds);
    job_ok.push_back(job_success(result));
  }
  std::vector<double> serial_job_s;
  for (const engine::JobResult& result : serial.results) {
    serial_job_s.push_back(result.wall_seconds);
  }

  // Before timing: one composition check per distinct (n, m, design).
  std::vector<std::tuple<Index, Index, int, Index>> checked;
  for (const JobSpec& spec : specs) {
    const auto key = std::make_tuple(spec.n, spec.m,
                                     static_cast<int>(spec.design.family),
                                     spec.design.delta);
    if (std::find(checked.begin(), checked.end(), key) == checked.end()) {
      check_composition(spec);
      checked.push_back(key);
    }
  }

  LayerSums sums;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    replay(specs[j], job_success(run.results[j]), sums);
  }

  Json engine_json = Json::object();
  engine_json.set("plan_s", number_array(plan_s))
      .set("run_s", run.run_s)
      .set("report_s", run.report_s)
      .set("workers", kWorkers)
      .set("job_s", number_array(job_s))
      .set("serial_job_s", number_array(serial_job_s))
      .set("job_success", number_array(job_ok));
  Json layers = Json::object();
  layers.set("jobs", sums.jobs)
      .set("truth_s", sums.truth)
      .set("graph_s", sums.graph)
      .set("measure_s", sums.measure)
      .set("greedy_s", sums.greedy)
      .set("amp_s", sums.amp)
      .set("eval_s", sums.eval)
      .set("total_s", sums.total)
      .set("edges", sums.edges)
      .set("amp_jobs", sums.amp_jobs)
      .set("amp_iterations", sums.amp_iterations)
      .set("amp_converged", sums.amp_converged);
  Json out = Json::object();
  out.set("engine", std::move(engine_json))
      .set("layers", std::move(layers))
      .set("composition_checked", static_cast<std::int64_t>(checked.size()))
      .set("replay_mismatches", sums.mismatches);
  return out;
}

int run_trace(const Options& opt) {
  const BatchWorkload& workload = batch_workload(opt.workload);
  engine::ScenarioRegistry registry;
  engine::register_builtin_scenarios(registry);
  std::vector<double> plan_s;
  std::vector<engine::BatchPlan> plans;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    engine::BatchPlan plan =
        engine::plan_batch(registry, batch_request(workload, opt.seed));
    plan_s.push_back(since(start));
    plans = {std::move(plan)};
  }
  Json out = layer_study(plans, plan_s);
  out.set("mode", "trace");
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ----------------------------------------------------------------- serve

/// The serve mix: every 5th request is paper-scale, the other 4 are
/// small.  The run seed changes only the instances (via the daemon's
/// per-request seeds), not when or what kind of requests arrive.
struct ServeRequest {
  std::string id;
  bool large = false;
  std::string params;
  std::string frame;
};

ServeRequest make_request(std::int64_t index) {
  ServeRequest request;
  request.id = "q" + std::to_string(index);
  request.large = index % 5 == 0;
  request.params = request.large ? "n_lo=1000;n_hi=1000;solver=amp"
                                 : "n_lo=100;n_hi=100;solver=greedy";
  Json doc = Json::object();
  doc.set("schema", std::string(npd::serve::kRequestSchema))
      .set("id", request.id)
      .set("op", "solve")
      .set("scenario", "solver_sweep")
      .set("params", request.params);
  request.frame = doc.dump();
  return request;
}

Json control_request(const std::string& op) {
  Json doc = Json::object();
  doc.set("schema", std::string(npd::serve::kRequestSchema))
      .set("id", "ctl-" + op)
      .set("op", op);
  return doc;
}

/// Send one control request on a fresh connection; the reply, if any.
std::optional<Json> control(const std::string& socket, const std::string& op) {
  const net::Fd fd = net::connect_unix(socket);
  if (!net::write_frame(fd, control_request(op).dump())) {
    return std::nullopt;
  }
  const std::optional<std::string> reply = net::read_frame(fd);
  if (!reply.has_value()) {
    return std::nullopt;
  }
  return Json::parse(*reply);
}

/// A spawned npd_serve daemon, killed and reaped on destruction if it
/// has not been shut down cleanly.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const std::string& log)
      : process_(npd::spawn_process(argv, log)) {}
  ~Daemon() {
    if (process_.pid > 0) {
      (void)::kill(process_.pid, SIGKILL);
      (void)::waitpid(process_.pid, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon(Daemon&&) = delete;
  Daemon& operator=(Daemon&&) = delete;

  [[nodiscard]] int pid() const { return process_.pid; }

  /// Ask the daemon to drain and exit; wait up to 20 s, then kill.
  bool shutdown(const std::string& socket) {
    bool clean = false;
    try {
      clean = control(socket, "shutdown").has_value();
    } catch (const std::exception&) {
      clean = false;
    }
    const Clock::time_point start = Clock::now();
    while (since(start) < 20.0) {
      int status = 0;
      if (::waitpid(process_.pid, &status, WNOHANG) == process_.pid) {
        process_.pid = -1;
        return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

 private:
  npd::SpawnedProcess process_;
};

/// Spawn the daemon and return the time until its first ping answer.
double start_daemon(std::unique_ptr<Daemon>& daemon,
                    const std::vector<std::string>& argv,
                    const std::string& socket, const std::string& log) {
  std::filesystem::remove(socket);
  const Clock::time_point start = Clock::now();
  daemon = std::make_unique<Daemon>(argv, log);
  while (since(start) < 60.0) {
    try {
      const std::optional<Json> reply = control(socket, "ping");
      if (reply.has_value()) {
        return since(start);
      }
    } catch (const std::exception&) {
      // Not listening yet.
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  throw std::runtime_error("npd_serve did not answer a ping within 60 s");
}

/// What the client saw of one solve request.  Times are seconds from the
/// start of its phase; `due` is the scheduled send time (open loop).
struct Outcome {
  double due = 0.0;
  double sent = -1.0;
  double done = -1.0;
  bool ok = false;
  double exec_s = 0.0;
  double batch_requests = 0.0;
  double success = 0.0;
  std::size_t bytes = 0;
  std::string payload;
};

/// Validate a response against its request and record it.
void record_response(const std::string& payload, const ServeRequest& request,
                     Outcome& outcome, bool keep_payload) {
  outcome.bytes = payload.size();
  if (keep_payload) {
    outcome.payload = payload;
  }
  try {
    const Json doc = Json::parse(payload);
    const Json* status = doc.find("status");
    const Json* id = doc.find("id");
    outcome.ok = status != nullptr && status->is_string() &&
                 status->as_string() == "ok" && id != nullptr &&
                 id->is_string() && id->as_string() == request.id;
    if (outcome.ok) {
      const Json& perf = doc.at("perf");
      outcome.exec_s = perf.at("job_seconds").as_double();
      outcome.batch_requests = perf.at("batch_requests").as_double();
      outcome.success = doc.at("report")
                            .at("scenarios")
                            .at(0)
                            .at("aggregates")
                            .at("cells")
                            .at(0)
                            .at("metrics")
                            .at("success")
                            .at("mean")
                            .as_double();
    }
  } catch (const std::exception&) {
    outcome.ok = false;
  }
}

std::string id_of(const std::string& payload) {
  try {
    const Json doc = Json::parse(payload);
    const Json* id = doc.find("id");
    return id != nullptr && id->is_string() ? id->as_string() : "";
  } catch (const std::exception&) {
    return "";
  }
}

std::int64_t index_of(const std::string& id) {
  if (id.size() < 2 || id[0] != 'q') {
    return -1;
  }
  try {
    return std::stoll(id.substr(1));
  } catch (const std::exception&) {
    return -1;
  }
}

/// The open-loop arrival schedule, at a mean of `rate` requests per
/// second, in cycles of 5 requests (one paper-scale, four small; see
/// `make_request`).  The paper-scale request and a small one arrive
/// together, so that small one waits for the whole large solve in its
/// micro-batch; the other three arrive at 54%, 72% and 90% of the cycle,
/// after the large solve has normally finished.  So the small-request
/// median measures the protocol and queue path and the small-request
/// tail the wait behind a large solve, each unmixed with the other, and
/// every run sends the same traffic.
std::vector<double> cycle_schedule(std::int64_t count, double rate) {
  constexpr std::array<double, 5> kOffsets = {0.0, 0.0, 0.54, 0.72, 0.90};
  const double period = 5.0 / rate;
  std::vector<double> due;
  for (std::int64_t i = 0; i < count; ++i) {
    due.push_back(period * (static_cast<double>(i / 5) +
                            kOffsets[static_cast<std::size_t>(i % 5)]));
  }
  return due;
}

/// Open loop over two persistent connections: request i is sent at its
/// due time on connection i % 2, whether or not earlier answers have
/// arrived.  The main thread polls `op:"stats"` once a second when
/// `poll_stats` is set.
struct OpenLoopResult {
  std::vector<Outcome> outcomes;
  double queue_depth_max = 0.0;
};

OpenLoopResult open_loop(const std::string& socket,
                         const std::vector<ServeRequest>& requests,
                         const std::vector<double>& due, bool poll_stats,
                         bool keep_payloads) {
  const auto count = static_cast<std::int64_t>(due.size());
  OpenLoopResult result;
  result.outcomes.resize(static_cast<std::size_t>(count));
  std::vector<Outcome>& outcomes = result.outcomes;
  std::vector<net::Fd> conns;
  conns.push_back(net::connect_unix(socket));
  conns.push_back(net::connect_unix(socket));
  std::atomic<std::int64_t> received{0};
  const Clock::time_point start = Clock::now();

  const auto reader = [&](std::size_t c) {
    while (true) {
      const std::optional<std::string> frame = net::read_frame(conns[c]);
      if (!frame.has_value()) {
        return;
      }
      const double now = since(start);
      const std::int64_t index = index_of(id_of(*frame));
      if (index < 0 || index >= count) {
        continue;  // counts as never answered
      }
      Outcome& outcome = outcomes[static_cast<std::size_t>(index)];
      outcome.done = now;
      record_response(*frame, requests[static_cast<std::size_t>(index)],
                      outcome, keep_payloads);
      if (received.fetch_add(1) + 1 == count) {
        return;
      }
    }
  };
  const auto sender = [&] {
    for (std::int64_t i = 0; i < count; ++i) {
      Outcome& outcome = outcomes[static_cast<std::size_t>(i)];
      outcome.due = due[static_cast<std::size_t>(i)];
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(outcome.due)));
      outcome.sent = since(start);
      if (!net::write_frame(conns[static_cast<std::size_t>(i % 2)],
                            requests[static_cast<std::size_t>(i)].frame)) {
        outcome.sent = -1.0;
      }
    }
  };
  std::thread read0(reader, 0);
  std::thread read1(reader, 1);
  std::thread send(sender);

  // Wait for every answer, polling stats meanwhile; give up 30 s after
  // the last request was due.
  const double deadline = due.back() + 30.0;
  double next_poll = 0.0;
  while (received.load() < count && since(start) < deadline) {
    if (poll_stats && since(start) >= next_poll) {
      next_poll += 1.0;
      try {
        const std::optional<Json> stats = control(socket, "stats");
        if (stats.has_value()) {
          result.queue_depth_max =
              std::max(result.queue_depth_max,
                       stats->at("stats").at("queue_depth").as_double());
        }
      } catch (const std::exception&) {
        // A missed poll only loses one gauge sample.
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  send.join();
  // Unblock readers still waiting on answers that will not come.
  for (const net::Fd& fd : conns) {
    (void)::shutdown(fd.get(), SHUT_RDWR);
  }
  read0.join();
  read1.join();
  return result;
}

/// Closed loop: two connections, each sending its next request only
/// after the previous answer arrived.  Returns the phase's wall time.
double closed_loop(const std::string& socket,
                   const std::vector<ServeRequest>& requests,
                   std::int64_t first, std::int64_t count,
                   std::vector<Outcome>& outcomes) {
  outcomes.assign(static_cast<std::size_t>(count), Outcome{});
  std::atomic<std::int64_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto client = [&] {
    const net::Fd fd = net::connect_unix(socket);
    while (true) {
      const std::int64_t i = next.fetch_add(1);
      if (i >= count) {
        return;
      }
      Outcome& outcome = outcomes[static_cast<std::size_t>(i)];
      const ServeRequest& request =
          requests[static_cast<std::size_t>(first + i)];
      outcome.sent = since(start);
      if (!net::write_frame(fd, request.frame)) {
        return;
      }
      const std::optional<std::string> frame = net::read_frame(fd);
      if (!frame.has_value()) {
        return;
      }
      outcome.done = since(start);
      record_response(*frame, request, outcome, false);
    }
  };
  std::thread a(client);
  std::thread b(client);
  a.join();
  b.join();
  return since(start);
}

/// One field of /proc/<pid>/status (e.g. "VmHWM:", "Threads:").
double proc_status(int pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size()));
    }
  }
  return -1.0;
}

double open_fds(int pid) {
  double count = 0.0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/fd")) {
    count += 1.0;
  }
  return count;
}

Json outcomes_json(const std::vector<Outcome>& outcomes,
                   const std::vector<ServeRequest>& requests,
                   std::int64_t first) {
  Json array = Json::array();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    Json row = Json::array();
    row.push_back(requests[static_cast<std::size_t>(first) + i].large ? 1 : 0);
    row.push_back(o.due);
    row.push_back(o.sent);
    row.push_back(o.done);
    row.push_back(o.ok ? 1 : 0);
    row.push_back(o.exec_s);
    row.push_back(o.batch_requests);
    row.push_back(o.success);
    row.push_back(static_cast<double>(o.bytes));
    array.push_back(std::move(row));
  }
  return array;
}

int run_serve(const Options& opt) {
  const std::uint64_t seed = opt.seed;
  const double seconds = opt.seconds;
  const bool traced = opt.trace;
  const std::string& socket = opt.socket;
  const std::string& log = opt.log;
  const std::vector<std::string> argv = {
      opt.serve_bin, "--socket", socket, "--threads",
      std::to_string(kWorkers), "--seed", std::to_string(seed),
      // Leak-proofing backstop should this driver die mid-run.
      "--idle-timeout-ms", "120000", "--quiet"};

  // Set-up: daemon starts before and after the workload, so their median
  // spans the run; the last start before it serves the workload.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  constexpr int kStarts = 8;
  const auto restart = [&] {
    if (!daemon->shutdown(socket)) {
      throw std::runtime_error("npd_serve did not shut down cleanly");
    }
    setup_s.push_back(start_daemon(daemon, argv, socket, log));
  };
  setup_s.push_back(start_daemon(daemon, argv, socket, log));
  for (int i = 0; i < kStarts; ++i) {
    restart();
  }

  // Open loop at a mean rate near 45% of capacity, then a closed loop of
  // a fixed request count.
  constexpr double kRate = 150.0;
  const std::vector<double> due = cycle_schedule(
      static_cast<std::int64_t>(0.75 * seconds * kRate), kRate);
  const auto open_count = static_cast<std::int64_t>(due.size());
  const auto closed_count = static_cast<std::int64_t>(0.2 * seconds * 340.0);
  std::vector<ServeRequest> requests;
  for (std::int64_t i = 0; i < open_count + closed_count; ++i) {
    requests.push_back(make_request(i));
  }
  OpenLoopResult open =
      open_loop(socket, requests, due, traced, traced);
  std::vector<Outcome> closed;
  const double closed_wall =
      closed_loop(socket, requests, open_count, closed_count, closed);

  const int pid = daemon->pid();
  const double daemon_rss_mb = proc_status(pid, "VmHWM:") / 1024.0;
  const double threads = proc_status(pid, "Threads:");
  const double fds = open_fds(pid);
  for (int i = 0; i < kStarts; ++i) {
    restart();
  }
  const bool clean_exit = daemon->shutdown(socket);

  Json out = Json::object();
  out.set("mode", traced ? "serve_trace" : "serve")
      .set("setup_s", number_array(setup_s))
      .set("rate", kRate)
      .set("open", outcomes_json(open.outcomes, requests, 0))
      .set("closed", outcomes_json(closed, requests, open_count))
      .set("closed_wall_s", closed_wall)
      .set("peak_rss_mb", daemon_rss_mb)
      .set("clean_exit", clean_exit);

  if (traced) {
    // Codec cost of the frames this run exchanged, measured in-process.
    const Clock::time_point decode_start = Clock::now();
    for (std::int64_t i = 0; i < open_count; ++i) {
      const npd::serve::Request parsed = npd::serve::parse_request(
          Json::parse(requests[static_cast<std::size_t>(i)].frame));
      if (parsed.id != requests[static_cast<std::size_t>(i)].id) {
        throw std::runtime_error("request frame does not round-trip");
      }
    }
    const double decode_us =
        since(decode_start) * 1e6 / static_cast<double>(open_count);
    double encode_s = 0.0;
    std::int64_t encoded = 0;
    for (const Outcome& outcome : open.outcomes) {
      if (outcome.payload.empty()) {
        continue;
      }
      const Json doc = Json::parse(outcome.payload);
      const Clock::time_point encode_start = Clock::now();
      const std::string bytes = doc.dump();
      encode_s += since(encode_start);
      ++encoded;
    }

    // Layer study of the first requests of the mix, planned in-process
    // at the seeds the daemon derived for them.
    engine::ScenarioRegistry registry;
    engine::register_builtin_scenarios(registry);
    std::vector<engine::BatchPlan> plans;
    std::vector<double> plan_s;
    const std::int64_t studied = std::min<std::int64_t>(open_count, 150);
    for (std::int64_t i = 0; i < studied; ++i) {
      const ServeRequest& request = requests[static_cast<std::size_t>(i)];
      engine::BatchRequest batch;
      batch.scenario_names = {"solver_sweep"};
      batch.config.seed = npd::serve::derive_request_seed(seed, request.id);
      batch.config.reps = 1;
      batch.config.threads = kWorkers;
      for (const std::string& pair : npd::split_list(request.params, ';')) {
        const std::size_t eq = pair.find('=');
        batch.overrides.push_back(
            {"solver_sweep", pair.substr(0, eq), pair.substr(eq + 1)});
      }
      const Clock::time_point start = Clock::now();
      plans.push_back(engine::plan_batch(registry, batch));
      plan_s.push_back(since(start));
    }
    Json study = layer_study(plans, plan_s);
    // The served answers must be the ones the engine gives offline.
    Index served_mismatches = 0;
    const Json& offline = study.at("engine").at("job_success");
    for (std::int64_t i = 0; i < studied; ++i) {
      const auto at = static_cast<std::size_t>(i);
      if (open.outcomes[at].ok &&
          open.outcomes[at].success != offline.at(at).as_double()) {
        ++served_mismatches;
      }
    }
    out.set("study", std::move(study))
        .set("decode_us", decode_us)
        .set("encode_us", encoded > 0 ? encode_s * 1e6 /
                                            static_cast<double>(encoded)
                                      : 0.0)
        .set("queue_depth_max", open.queue_depth_max)
        .set("threads", threads)
        .set("open_fds", fds)
        .set("studied", studied)
        .set("served_mismatches", served_mismatches);
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver plan|batch|trace|serve [options]\n");
    return 2;
  }
  try {
    // argv[1] names the mode; the options follow it.
    const std::string mode = argv[1];
    npd::CliParser cli("perfbench_driver " + mode,
                       "Runs one workload of the repository benchmark and "
                       "prints its raw samples as JSON.");
    const std::string& workload =
        cli.add_string("workload", "", "batch workload name");
    const long long& seed = cli.add_int("seed", 0, "run seed");
    const double& seconds =
        cli.add_double("seconds", 10.0, "how long the run measures");
    const std::string& report = cli.add_string(
        "report", "", "batch: where batch 0 writes its --no-perf report");
    const long long& trace =
        cli.add_int("trace", 0, "serve: 1 for the traced run");
    const std::string& serve_bin =
        cli.add_string("serve-bin", "", "serve: the npd_serve binary");
    const std::string& socket =
        cli.add_string("socket", "", "serve: Unix socket path");
    const std::string& log =
        cli.add_string("log", "", "serve: the daemon's log file");
    cli.parse(argc - 1, argv + 1);
    if (seed < 0) {
      throw std::invalid_argument("--seed: need a non-negative seed");
    }
    const Options opt{workload, static_cast<std::uint64_t>(seed), seconds,
                      report,   trace == 1,                       serve_bin,
                      socket,   log};
    if (mode == "plan") {
      return run_plan(opt);
    }
    if (mode == "batch") {
      return run_batch(opt);
    }
    if (mode == "trace") {
      return run_trace(opt);
    }
    if (mode == "serve") {
      return run_serve(opt);
    }
    std::fprintf(stderr, "perfbench_driver: unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
}
