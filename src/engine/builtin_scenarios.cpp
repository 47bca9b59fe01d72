#include "engine/builtin_scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <utility>

#include "amp/amp.hpp"
#include "amp/state_evolution.hpp"
#include "core/evaluation.hpp"
#include "core/greedy.hpp"
#include "core/instance.hpp"
#include "core/scores.hpp"
#include "core/theory.hpp"
#include "harness/required_queries.hpp"
#include "harness/sweeps.hpp"
#include "netsim/distributed_amp.hpp"
#include "netsim/distributed_greedy.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/pooling_graph.hpp"
#include "pooling/query_design.hpp"
#include "solve/channel_spec.hpp"
#include "solve/design_spec.hpp"
#include "solve/reconstructor.hpp"
#include "util/parse.hpp"

namespace npd::engine {

namespace {

// ================================================================ skeleton
//
// Every built-in scenario runs the paper's Section V protocol: a grid of
// cells, each repeated, each repetition building an instance and scoring
// it.  A scenario is therefore a `Declaration` (name, help, parameters)
// plus a `Layout` resolved from the parameter values, and `GridScenario`
// turns any layout into jobs and aggregates.

/// A cell's position: one index per axis, slowest axis first.
using Coords = std::vector<std::size_t>;

/// Mixed-radix cell index over a scenario's axes, row-major (the last
/// axis varies fastest).  Jobs are expanded in ascending cell order and
/// aggregates decode cells through the same radices.
class CellGrid {
 public:
  explicit CellGrid(std::vector<std::size_t> radices)
      : radices_(std::move(radices)) {}

  [[nodiscard]] Index size() const {
    std::size_t cells = 1;
    for (const std::size_t radix : radices_) {
      cells *= radix;
    }
    return static_cast<Index>(cells);
  }

  [[nodiscard]] Coords split(Index cell) const {
    Coords coords(radices_.size());
    auto rest = static_cast<std::size_t>(cell);
    for (std::size_t axis = radices_.size(); axis-- > 0;) {
      coords[axis] = rest % radices_[axis];
      rest /= radices_[axis];
    }
    return coords;
  }

 private:
  std::vector<std::size_t> radices_;
};

/// How a job's seed derives from the batch seed.  Every scenario names
/// one of three policies:
///   * canonical — `derive_job_seed(seed, scenario, cell, rep)`, the
///     engine's SplitMix64 chain over the job's coordinates;
///   * rooted — `Rng(seed + salt(coords)).derive(stream(coords, rep))`,
///     the harness sweeps' derivation, which the figure and ablation
///     scenarios replicate byte for byte (each pinned by an
///     `EngineAgreementTest` case);
///   * raw — `seed + salt(coords)`.  The seed ignores the repetition, so
///     a raw scenario runs exactly one job per cell whatever `reps` is.
struct SeedPolicy {
  enum class Kind { Canonical, Rooted, Raw };

  Kind kind = Kind::Canonical;
  std::function<std::uint64_t(const Coords&)> salt;
  std::function<std::uint64_t(const Coords&, Index rep)> stream;

  static SeedPolicy canonical() { return {}; }

  static SeedPolicy rooted(
      std::function<std::uint64_t(const Coords&)> salt,
      std::function<std::uint64_t(const Coords&, Index rep)> stream) {
    return {Kind::Rooted, std::move(salt), std::move(stream)};
  }

  static SeedPolicy raw(std::function<std::uint64_t(const Coords&)> salt) {
    return {Kind::Raw, std::move(salt), nullptr};
  }

  [[nodiscard]] std::uint64_t seed(std::uint64_t base,
                                   const std::string& scenario, Index cell,
                                   const Coords& coords, Index rep) const {
    switch (kind) {
      case Kind::Canonical:
        return derive_job_seed(base, scenario, cell, rep);
      case Kind::Rooted:
        return rand::Rng::derive_seed(base + salt(coords),
                                      stream(coords, rep));
      case Kind::Raw:
        return base + salt(coords);
    }
    return 0;
  }
};

/// The rooted stream of a single-point sweep: just the repetition.
std::uint64_t rep_stream(const Coords& /*coords*/, Index rep) {
  return static_cast<std::uint64_t>(rep);
}

/// The rooted stream of a multi-point sweep: `coords[axis]·stride + rep`.
std::function<std::uint64_t(const Coords&, Index)> point_stream(
    std::size_t axis, std::uint64_t stride) {
  return [axis, stride](const Coords& coords, Index rep) {
    return coords[axis] * stride + static_cast<std::uint64_t>(rep);
  };
}

/// One cell's work: the body every repetition runs, and its relative
/// cost for the scheduler.
struct CellWork {
  std::function<Metrics(rand::Rng&)> run;
  Index cost_hint = 1;
};

/// A scenario resolved for one set of parameter values.
struct Layout {
  /// Axis sizes, slowest first.
  std::vector<std::size_t> axes;
  SeedPolicy seeds;
  /// The cell's work; may reject a cell-specific parameter clash.
  std::function<CellWork(const Coords&)> work;
  /// The cell's identity columns in the report.
  std::function<Json(const Coords&)> meta;
  /// Optional wrapper around the aggregated `{"cells": [...]}`.
  std::function<Json(Json)> wrap = nullptr;
};

/// A built-in scenario as data.  `layout` validates the parameter values
/// — throwing `std::invalid_argument` that names the scenario — and
/// resolves them.
struct Declaration {
  std::string description;
  std::vector<ParamSpec> params;
  std::function<Layout(const ScenarioParams&)> layout;
};

/// Builds the declaration of the scenario registered under `name`.
using Declare = Declaration (*)(const std::string& name);

/// The one `Scenario` behind every built-in.  The declaration is built
/// on each use, so registering all of them touches only their names.
class GridScenario final : public Scenario {
 public:
  GridScenario(std::string name, Declare declare)
      : name_(std::move(name)), declare_(declare) {}

  std::string name() const override { return name_; }

  std::string description() const override {
    return declare_(name_).description;
  }

  std::vector<ParamSpec> params() const override {
    return declare_(name_).params;
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const Layout layout = declare_(name_).layout(params);
    const CellGrid grid(layout.axes);
    const Index reps =
        layout.seeds.kind == SeedPolicy::Kind::Raw ? 1 : config.reps;
    std::vector<Job> jobs;
    jobs.reserve(static_cast<std::size_t>(grid.size() * reps));
    for (Index cell = 0; cell < grid.size(); ++cell) {
      const Coords coords = grid.split(cell);
      const CellWork work = layout.work(coords);
      for (Index rep = 0; rep < reps; ++rep) {
        Job job;
        job.cell = cell;
        job.rep = rep;
        job.seed = layout.seeds.seed(config.seed, name_, cell, coords, rep);
        job.cost_hint = work.cost_hint;
        job.run = work.run;
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const Layout layout = declare_(name_).layout(params);
    const CellGrid grid(layout.axes);
    Json cells = aggregate_cells(
        results, [&](Index cell) { return layout.meta(grid.split(cell)); });
    if (layout.wrap) {
      return layout.wrap(std::move(cells));
    }
    return cells;
  }

 private:
  std::string name_;
  Declare declare_;
};

// ============================================================== parameters

/// Bad user parameters must surface as clean `std::invalid_argument`s
/// naming the scenario and constraint — before any job is scheduled —
/// not as contract violations from deep library code on a worker thread.
void require_param(bool condition, const std::string& scenario,
                   const std::string& constraint) {
  if (!condition) {
    throw std::invalid_argument(scenario + ": need " + constraint);
  }
}

/// Parameter groups concatenated in declaration (`--list`) order.
std::vector<ParamSpec> join(
    std::initializer_list<std::vector<ParamSpec>> groups) {
  std::vector<ParamSpec> specs;
  for (const std::vector<ParamSpec>& group : groups) {
    specs.insert(specs.end(), group.begin(), group.end());
  }
  return specs;
}

ParamSpec theta_spec(
    std::string help = "sublinear regime exponent (k = n^theta)") {
  return {"theta", ParamSpec::Kind::Double, "0.25", std::move(help)};
}

double theta_param(const std::string& scenario, const ScenarioParams& params) {
  const double theta = params.get_double("theta");
  require_param(theta > 0.0 && theta < 1.0, scenario, "theta in (0, 1)");
  return theta;
}

ParamSpec eps_spec(std::string fallback, std::string help) {
  return {"eps", ParamSpec::Kind::Double, std::move(fallback),
          std::move(help)};
}

double eps_param(const std::string& scenario, const ScenarioParams& params) {
  const double eps = params.get_double("eps");
  require_param(eps > 0.0, scenario, "eps > 0");
  return eps;
}

ParamSpec n_spec(std::string fallback) {
  return {"n", ParamSpec::Kind::Int, std::move(fallback), "number of agents"};
}

Index n_param(const std::string& scenario, const ScenarioParams& params) {
  const auto n = static_cast<Index>(params.get_int("n"));
  require_param(n >= 2, scenario, "n >= 2");
  return n;
}

ParamSpec p_spec(std::string fallback,
                 std::string help = "Z-channel flip probability") {
  return {"p", ParamSpec::Kind::Double, std::move(fallback), std::move(help)};
}

/// A channel error rate (`p` or `q`) in [0, 1).
double rate_param(const std::string& scenario, const ScenarioParams& params,
                  const std::string& key) {
  const double rate = params.get_double(key);
  require_param(rate >= 0.0 && rate < 1.0, scenario, key + " in [0, 1)");
  return rate;
}

/// The linear m-grid `m_step, 2·m_step, …, ≤ m_max`.
std::vector<ParamSpec> m_step_specs(std::string step, std::string max) {
  return {{"m_step", ParamSpec::Kind::Int, std::move(step), "grid step in m"},
          {"m_max", ParamSpec::Kind::Int, std::move(max), "largest m"}};
}

std::vector<Index> m_step_grid(const std::string& scenario,
                               const ScenarioParams& params) {
  const auto m_step = static_cast<Index>(params.get_int("m_step"));
  const auto m_max = static_cast<Index>(params.get_int("m_max"));
  require_param(m_step >= 1 && m_max >= m_step, scenario,
                "1 <= m_step <= m_max");
  return harness::linear_grid(m_step, m_max, m_step);
}

/// The n log-grid from 100 to `max_n`.
std::vector<Index> n_log_grid(const std::string& scenario, long long max_n,
                              long long ppd) {
  require_param(max_n >= 100, scenario,
                "max_n >= 100 (the grid's smallest point)");
  require_param(ppd >= 1, scenario, "ppd >= 1");
  return harness::log_grid(100, static_cast<Index>(max_n),
                           static_cast<Index>(ppd));
}

std::vector<ParamSpec> max_n_specs() {
  return {{"max_n", ParamSpec::Kind::Int, "10000", "largest n of the log grid"},
          {"ppd", ParamSpec::Kind::Int, "2",
           "log-grid points per decade (paper scale: 3)"}};
}

std::vector<Index> max_n_grid(const std::string& scenario,
                              const ScenarioParams& params) {
  return n_log_grid(scenario, params.get_int("max_n"), params.get_int("ppd"));
}

/// The n log-grid from `n_lo` to `n_hi`.
std::vector<ParamSpec> n_range_specs() {
  return {{"n_lo", ParamSpec::Kind::Int, "200", "smallest n of the log grid"},
          {"n_hi", ParamSpec::Kind::Int, "400", "largest n of the log grid"},
          {"n_ppd", ParamSpec::Kind::Int, "2",
           "log-grid points per decade over n"}};
}

std::vector<Index> n_range_grid(const std::string& scenario,
                                const ScenarioParams& params) {
  const auto n_lo = static_cast<Index>(params.get_int("n_lo"));
  const auto n_hi = static_cast<Index>(params.get_int("n_hi"));
  const auto n_ppd = static_cast<Index>(params.get_int("n_ppd"));
  require_param(n_lo >= 2 && n_hi >= n_lo, scenario, "2 <= n_lo <= n_hi");
  require_param(n_ppd >= 1, scenario, "n_ppd >= 1");
  return harness::log_grid(n_lo, n_hi, n_ppd);
}

/// The `design=` parameter every design-generic scenario exposes.
ParamSpec design_spec() {
  return {"design", ParamSpec::Kind::String, "paper",
          "design spec: paper | wr:<frac> | wor:<frac> | bernoulli:<frac> | "
          "regular:<delta>"};
}

/// Doubly regular designs need m <= n*delta (empty pools otherwise); a
/// scenario that computed m from a theory bound must surface the clash
/// as a clean parameter error before any job is scheduled.
void require_design_feasible(const std::string& scenario,
                             const solve::DesignSpec& design, Index n,
                             Index m) {
  require_param(design.family != solve::DesignSpec::Family::Regular ||
                    m <= n * design.delta,
                scenario,
                "m <= n*delta for design '" + design.label() + "'");
}

/// One solver chosen by `solver=` and configured by `solver_params=`.
std::vector<ParamSpec> solver_specs(std::string fallback) {
  return {{"solver", ParamSpec::Kind::String, std::move(fallback),
           "registered solver name (see npd_run --list-solvers)"},
          {"solver_params", ParamSpec::Kind::String, "",
           "solver options as key=value[;key=value...]"}};
}

/// Resolving a solver before any job is scheduled makes unknown names
/// and options fail early; one instance serves every job (solve is const
/// and stateless).
std::shared_ptr<const solve::Reconstructor> solver_param(
    const ScenarioParams& params) {
  return solve::builtin_solvers().make(params.get_string("solver"),
                                       params.get_string("solver_params"));
}

/// A `solvers=` roster, one series per name.
ParamSpec solvers_spec(std::string fallback, std::string help) {
  return {"solvers", ParamSpec::Kind::String, std::move(fallback),
          std::move(help)};
}

struct SolverRoster {
  std::vector<std::string> names;
  std::vector<std::shared_ptr<const solve::Reconstructor>> solvers;
};

SolverRoster solvers_param(const std::string& scenario,
                           const ScenarioParams& params) {
  SolverRoster roster;
  roster.names = split_list(params.get_string("solvers"), ';');
  require_param(!roster.names.empty(), scenario,
                "at least one solver in 'solvers'");
  roster.solvers.reserve(roster.names.size());
  for (const std::string& name : roster.names) {
    roster.solvers.push_back(solve::builtin_solvers().make(name, ""));
  }
  return roster;
}

solve::ChannelSpec bitflip(double p, double q = 0.0) {
  return {.family = solve::ChannelSpec::Family::BitFlip, .p = p, .q = q};
}

solve::ChannelSpec gauss(double lambda) {
  return {.family = solve::ChannelSpec::Family::Gaussian, .lambda = lambda};
}

pooling::GraphDesign per_query(pooling::QueryDesign design) {
  return {.family = pooling::DesignFamily::PerQuery, .per_query = design};
}

/// m at `frac` times the channel's theory bound (at least 1).
Index theory_fraction_m(Index n, double theta, double frac, double eps,
                        const solve::ChannelSpec& channel) {
  const auto m =
      static_cast<Index>(std::ceil(frac * channel.theory_m(n, theta, eps)));
  return m < 1 ? 1 : m;
}

// ============================================================== job bodies

Metrics success_metrics(const BitVector& estimate,
                        const pooling::GroundTruth& truth) {
  return {{"success", core::exact_success(estimate, truth) ? 1.0 : 0.0},
          {"overlap", core::overlap(estimate, truth)}};
}

/// The metrics a solve job reports for its estimate.
using Score = Metrics (*)(const solve::SolveResult&, const core::Instance&);

Metrics score_success(const solve::SolveResult& result,
                      const core::Instance& instance) {
  return success_metrics(result.estimate, instance.truth);
}

/// Shared solve body: sample the cell's instance, run the registered
/// solver on it and score the estimate.
std::function<Metrics(rand::Rng&)> solve_job(
    Index n, Index k, Index m, pooling::GraphDesign design,
    solve::ChannelSpec spec,
    std::shared_ptr<const solve::Reconstructor> solver,
    Score score = score_success) {
  return [n, k, m, design, spec, solver = std::move(solver),
          score](rand::Rng& rng) -> Metrics {
    const auto channel = spec.make();
    const core::Instance instance =
        core::make_instance(n, k, m, design, *channel, rng);
    return score(solver->solve(instance, *channel, rng), instance);
  };
}

/// Shared required-queries body: add queries one at a time until the
/// scores separate, reporting `{m, reached}`.
std::function<Metrics(rand::Rng&)> required_queries_job(
    Index n, Index k, pooling::QueryDesign design, solve::ChannelSpec spec,
    harness::RequiredQueriesOptions options = {}) {
  return [n, k, design, spec, options](rand::Rng& rng) -> Metrics {
    const auto channel = spec.make();
    const auto result =
        harness::required_queries(n, k, design, *channel, rng, options);
    return {{"m", static_cast<double>(result.m)},
            {"reached", result.reached ? 1.0 : 0.0}};
  };
}

// ------------------------------------------------------------------ fig5

/// Figure 5 required-queries boxplots over n ∈ {10³, 10⁴, 10⁵} ≤ max_n ×
/// a seven-channel roster.  Rooted per channel with stream `rep`: the
/// single-point `harness::required_queries_sweep`, independent of n.
Declaration fig5(const std::string& name) {
  return {
      "required-queries boxplots: Z-channel p in {.1,.3,.5}, query noise "
      "lambda in {0..3} (Figure 5)",
      {theta_spec(),
       {"max_n", ParamSpec::Kind::Int, "10000",
        "largest n of the {1e3, 1e4, 1e5} grid to run"}},
      [name](const ScenarioParams& params) {
        struct Series {
          std::string label;
          solve::ChannelSpec channel;
          std::uint64_t salt;
        };
        std::vector<Series> roster;
        for (const double p : {0.1, 0.3, 0.5}) {
          roster.push_back({"z(p=" + std::to_string(p).substr(0, 3) + ")",
                            bitflip(p),
                            static_cast<std::uint64_t>(p * 8009.0)});
        }
        for (const double lambda : {0.0, 1.0, 2.0, 3.0}) {
          roster.push_back(
              {"gauss(l=" + std::to_string(static_cast<int>(lambda)) + ")",
               gauss(lambda),
               1000003 + static_cast<std::uint64_t>(lambda * 631.0)});
        }
        const double theta = theta_param(name, params);
        std::vector<Index> ns;
        for (const Index n : {Index{1000}, Index{10000}, Index{100000}}) {
          if (n <= params.get_int("max_n")) {
            ns.push_back(n);
          }
        }
        require_param(!ns.empty(), name,
                      "max_n >= 1000 (the grid's smallest point)");
        return Layout{
            .axes = {ns.size(), roster.size()},
            .seeds = SeedPolicy::rooted(
                [roster](const Coords& c) { return roster[c[1]].salt; },
                rep_stream),
            .work =
                [=](const Coords& c) {
                  const Index n = ns[c[0]];
                  return CellWork{
                      required_queries_job(n, pooling::sublinear_k(n, theta),
                                           pooling::paper_design(n),
                                           roster[c[1]].channel),
                      n};
                },
            .meta =
                [=](const Coords& c) {
                  return Json::object()
                      .set("n", ns[c[0]])
                      .set("channel", roster[c[1]].label)
                      .set("channel_id", static_cast<std::int64_t>(c[1]));
                }};
      }};
}

// ------------------------------------------------------------------ abl7

/// Distributed cost of one instance: greedy vs the measured (dense) and
/// sparse-modelled distributed AMP.
Metrics distributed_costs(Index n, double p, double theta,
                          Index amp_sim_max_n, rand::Rng& rng) {
  const noise::BitFlipChannel channel(p, 0.0);
  const Index k = pooling::sublinear_k(n, theta);
  // Queries: slightly above the Theorem 1 bound so both algorithms
  // operate in their success regime.
  const auto m = static_cast<Index>(
      std::ceil(1.5 * core::theory::z_channel_sublinear(n, theta, p, 0.1)));

  const core::Instance instance = core::make_instance(
      n, k, m, pooling::paper_design(n), channel, rng);

  const auto greedy = netsim::run_distributed_greedy(instance);

  const auto lin = channel.linearization(n, k, n / 2);
  const amp::AmpProblem problem = amp::standardize(instance, lin);
  const amp::BayesBernoulliDenoiser denoiser(problem.pi);
  const auto centralized_amp = amp::run_amp(problem, denoiser);

  double measured_msgs = 0.0;
  double measured_rounds = 0.0;
  if (n <= amp_sim_max_n) {
    const auto dist_amp = netsim::run_distributed_amp(
        instance, problem, denoiser, centralized_amp.iterations);
    measured_msgs = static_cast<double>(dist_amp.iteration_stats.messages +
                                        dist_amp.topk_stats.messages);
    measured_rounds = static_cast<double>(dist_amp.iteration_stats.rounds +
                                          dist_amp.topk_stats.rounds);
  }
  Index distinct_incidences = 0;
  for (Index j = 0; j < instance.m(); ++j) {
    distinct_incidences +=
        static_cast<Index>(instance.graph.query_distinct(j).size());
  }
  const double sparse_model = static_cast<double>(2 * distinct_incidences) *
                              static_cast<double>(centralized_amp.iterations);

  const double reference = measured_msgs > 0.0 ? measured_msgs : sparse_model;
  const double ratio = reference / static_cast<double>(greedy.stats.messages);

  return {{"m", static_cast<double>(m)},
          {"greedy_rounds", static_cast<double>(greedy.stats.rounds)},
          {"greedy_messages", static_cast<double>(greedy.stats.messages)},
          {"greedy_bytes", static_cast<double>(greedy.stats.bytes)},
          {"amp_iterations", static_cast<double>(centralized_amp.iterations)},
          {"amp_messages_measured", measured_msgs},
          {"amp_rounds_measured", measured_rounds},
          {"amp_messages_sparse_model", sparse_model},
          {"msg_ratio", ratio}};
}

/// Ablation A7 distributed cost accounting over the n log grid.  Raw
/// seeds `seed + n`: the measurement is a deterministic function of the
/// instance, so one job per cell (pinned by
/// `EngineAgreementTest.Abl7IsRepCountInvariant`).
Declaration abl7(const std::string& name) {
  return {
      "distributed cost: greedy rounds/messages vs measured and "
      "sparse-modelled distributed AMP (Ablation A7)",
      {{"max_n", ParamSpec::Kind::Int, "4000", "largest n of the log grid"},
       {"amp_sim_max_n", ParamSpec::Kind::Int, "1000",
        "largest n for the faithful (dense) AMP simulation"},
       p_spec("0.1"),
       theta_spec("sublinear regime exponent")},
      [name](const ScenarioParams& params) {
        const double p = rate_param(name, params, "p");
        const double theta = theta_param(name, params);
        const std::vector<Index> ns =
            n_log_grid(name, params.get_int("max_n"), 2);
        const auto amp_sim_max_n =
            static_cast<Index>(params.get_int("amp_sim_max_n"));
        return Layout{
            .axes = {ns.size()},
            .seeds = SeedPolicy::raw([ns](const Coords& c) {
              return static_cast<std::uint64_t>(ns[c[0]]);
            }),
            .work =
                [=](const Coords& c) {
                  const Index n = ns[c[0]];
                  // The dense AMP simulation dominates where it runs.
                  return CellWork{[=](rand::Rng& rng) {
                                    return distributed_costs(
                                        n, p, theta, amp_sim_max_n, rng);
                                  },
                                  n <= amp_sim_max_n ? 8 * n : n};
                },
            .meta =
                [ns](const Coords& c) {
                  return Json::object().set("n", ns[c[0]]);
                }};
      }};
}

// --------------------------------------------------------------- fixed_m

/// Fixed-m reconstruction over an m-grid placed relative to the
/// Theorem 1 Z-channel bound (the Figure 6/7 protocol) with any
/// registered solver.  The historical per-algorithm names
/// `fixed_m_{greedy,amp,two_stage}` are aliases that only pin another
/// `solver` default; canonical seeds keep each name's streams its own.
Declaration fixed_m(const std::string& name,
                    const std::string& default_solver) {
  return {
      "fixed-m reconstruction with any registered solver (default " +
          default_solver +
          "): exact-success rate and overlap over an m-grid around the "
          "Theorem 1 bound",
      join({{n_spec("600"), theta_spec(), p_spec("0.1"),
             {"m_points", ParamSpec::Kind::Int, "5", "grid points over m"},
             {"m_lo_frac", ParamSpec::Kind::Double, "0.5",
              "lowest m as a fraction of the Theorem 1 bound"},
             {"m_hi_frac", ParamSpec::Kind::Double, "1.5",
              "highest m as a fraction of the Theorem 1 bound"}},
            solver_specs(default_solver),
            {design_spec()}}),
      [name](const ScenarioParams& params) {
        const Index n = n_param(name, params);
        const double theta = theta_param(name, params);
        const double p = rate_param(name, params, "p");
        const solve::DesignSpec design =
            solve::parse_design_spec(params.get_string("design"));
        const auto points = params.get_int("m_points");
        const double lo = params.get_double("m_lo_frac");
        const double hi = params.get_double("m_hi_frac");
        require_param(points >= 1 && lo > 0.0 && hi >= lo, name,
                      "m_points >= 1 and 0 < m_lo_frac <= m_hi_frac");
        const double bound =
            core::theory::z_channel_sublinear(n, theta, p, 0.1);
        std::vector<Index> ms;
        ms.reserve(static_cast<std::size_t>(points));
        for (long long i = 0; i < points; ++i) {
          const double frac =
              points == 1 ? lo
                          : lo + (hi - lo) * static_cast<double>(i) /
                                     static_cast<double>(points - 1);
          ms.push_back(std::max<Index>(
              1, static_cast<Index>(std::ceil(frac * bound))));
          require_design_feasible(name, design, n, ms.back());
        }
        const Index k = pooling::sublinear_k(n, theta);
        return Layout{
            .axes = {ms.size()},
            .seeds = SeedPolicy::canonical(),
            .work =
                [=, graph = design.instantiate(n),
                 solver = solver_param(params)](const Coords& c) {
                  return CellWork{
                      solve_job(n, k, ms[c[0]], graph, bitflip(p), solver),
                      n};
                },
            .meta =
                [ms, label = design.label()](const Coords& c) {
                  return Json::object()
                      .set("m", ms[c[0]])
                      .set("design", label);
                }};
      }};
}

// ----------------------------------------------------------- solver_sweep

Metrics score_convergence(const solve::SolveResult& result,
                          const core::Instance& instance) {
  Metrics metrics = score_success(result, instance);
  metrics.push_back({"iterations", static_cast<double>(result.iterations)});
  metrics.push_back({"converged", result.converged ? 1.0 : 0.0});
  if (result.net.has_value()) {
    metrics.push_back({"net_rounds", static_cast<double>(result.net->rounds)});
    metrics.push_back(
        {"net_messages", static_cast<double>(result.net->messages)});
    metrics.push_back({"net_bytes", static_cast<double>(result.net->bytes)});
  }
  return metrics;
}

/// The generic reconstruction scenario: any registered solver over the n
/// log grid, m at a fixed fraction of the channel's theory bound, the
/// channel a textual spec (solve/channel_spec.hpp).  Alongside
/// success/overlap it records the solver's convergence info and — for
/// distributed solvers — the network cost.  Canonical seeds.
Declaration solver_sweep(const std::string& name) {
  return {
      "any registered solver over an (n, m, channel) grid: success, "
      "overlap, convergence, network cost",
      join({solver_specs("greedy"),
            {{"channel", ParamSpec::Kind::String, "z:0.1",
              "channel spec: noiseless | z:<p> | bitflip:<p>:<q> | "
              "gauss:<lambda>"},
             design_spec()},
            n_range_specs(),
            {theta_spec(),
             {"m_frac", ParamSpec::Kind::Double, "1.2",
              "queries as a fraction of the channel's theory bound"},
             eps_spec("0.1", "epsilon in the theory bound")}}),
      [name](const ScenarioParams& params) {
        const solve::ChannelSpec channel =
            solve::parse_channel_spec(params.get_string("channel"));
        const solve::DesignSpec design =
            solve::parse_design_spec(params.get_string("design"));
        const double m_frac = params.get_double("m_frac");
        require_param(m_frac > 0.0, name, "m_frac > 0");
        const double theta = theta_param(name, params);
        const double eps = eps_param(name, params);
        const std::vector<Index> ns = n_range_grid(name, params);
        const auto m_of = [=](Index n) {
          return theory_fraction_m(n, theta, m_frac, eps, channel);
        };
        return Layout{
            .axes = {ns.size()},
            .seeds = SeedPolicy::canonical(),
            .work =
                [=, solver = solver_param(params)](const Coords& c) {
                  const Index n = ns[c[0]];
                  require_design_feasible(name, design, n, m_of(n));
                  return CellWork{
                      solve_job(n, pooling::sublinear_k(n, theta), m_of(n),
                                design.instantiate(n), channel, solver,
                                score_convergence),
                      n};
                },
            .meta =
                [=, solver = params.get_string("solver")](const Coords& c) {
                  const Index n = ns[c[0]];
                  return Json::object()
                      .set("n", n)
                      .set("k", pooling::sublinear_k(n, theta))
                      .set("m", m_of(n))
                      .set("channel", channel.label())
                      .set("design", design.label())
                      .set("solver", solver);
                }};
      }};
}

// ------------------------------------------------------------ phase_atlas

Metrics score_atlas(const solve::SolveResult& result,
                    const core::Instance& instance) {
  const double errors = static_cast<double>(
      core::hamming_errors(result.estimate, instance.truth));
  return {{"success",
           core::exact_success(result.estimate, instance.truth) ? 1.0 : 0.0},
          {"error", errors / static_cast<double>(instance.n())},
          {"overlap", core::overlap(result.estimate, instance.truth)}};
}

/// The phase-transition atlas: empirical success probability over the
/// full (design × solver × channel × n × m_frac) product grid, every
/// cell annotated with the channel's information-theoretic query bound
/// (Scarlett–Cevher 2017 / Theorems 1–2) so the m_frac axis reads
/// directly as "fraction of the theory threshold".  The aggregate is a
/// self-describing `npd.phase_atlas/1` document — explicit axes plus the
/// per-cell success-rate/error summaries — that docs/phase_atlas.md
/// shows how to render as a heatmap.  Canonical seeds.
Declaration phase_atlas(const std::string& name) {
  return {
      "success-probability atlas over (design x solver x channel x n x "
      "m_frac) with theory-threshold annotations",
      join({{{"designs", ParamSpec::Kind::String, "paper;regular:6",
              "design specs, ';'-separated: paper | wr:<frac> | wor:<frac> "
              "| bernoulli:<frac> | regular:<delta>"},
             solvers_spec("greedy", "registered solver names, ';'-separated"),
             {"channels", ParamSpec::Kind::String, "z:0.05;z:0.2",
              "channel specs, ';'-separated: noiseless | z:<p> | "
              "bitflip:<p>:<q> | gauss:<lambda>"}},
            n_range_specs(),
            {theta_spec(),
             {"m_fracs", ParamSpec::Kind::String, "0.6;1;1.4",
              "queries as fractions of each channel's theory bound, "
              "';'-separated (1 = the threshold line)"},
             eps_spec("0.1", "epsilon in the theory bound")}}),
      [name](const ScenarioParams& params) {
        std::vector<solve::DesignSpec> designs;
        for (const std::string& spec :
             split_list(params.get_string("designs"), ';')) {
          designs.push_back(solve::parse_design_spec(spec));
        }
        require_param(!designs.empty(), name,
                      "at least one design in 'designs'");
        const SolverRoster roster = solvers_param(name, params);
        std::vector<solve::ChannelSpec> channels;
        for (const std::string& spec :
             split_list(params.get_string("channels"), ';')) {
          channels.push_back(solve::parse_channel_spec(spec));
        }
        require_param(!channels.empty(), name,
                      "at least one channel in 'channels'");
        std::vector<double> m_fracs;
        for (const std::string& frac :
             split_list(params.get_string("m_fracs"), ';')) {
          m_fracs.push_back(parse_double_value("parameter 'm_fracs'", frac));
          require_param(m_fracs.back() > 0.0, name, "m_fracs > 0");
        }
        require_param(!m_fracs.empty(), name,
                      "at least one fraction in 'm_fracs'");
        const double theta = theta_param(name, params);
        const double eps = eps_param(name, params);
        const std::vector<Index> ns = n_range_grid(name, params);
        // Coordinates: (design, solver, channel, n, m_frac).
        const auto m_of = [=](const Coords& c) {
          return theory_fraction_m(ns[c[3]], theta, m_fracs[c[4]], eps,
                                   channels[c[2]]);
        };
        return Layout{
            .axes = {designs.size(), roster.names.size(), channels.size(),
                     ns.size(), m_fracs.size()},
            .seeds = SeedPolicy::canonical(),
            .work =
                [=](const Coords& c) {
                  const Index n = ns[c[3]];
                  require_design_feasible(name, designs[c[0]], n, m_of(c));
                  return CellWork{
                      solve_job(n, pooling::sublinear_k(n, theta), m_of(c),
                                designs[c[0]].instantiate(n), channels[c[2]],
                                roster.solvers[c[1]], score_atlas),
                      n};
                },
            .meta =
                [=](const Coords& c) {
                  const Index n = ns[c[3]];
                  return Json::object()
                      .set("design", designs[c[0]].label())
                      .set("solver", roster.names[c[1]])
                      .set("channel", channels[c[2]].label())
                      .set("n", n)
                      .set("k", pooling::sublinear_k(n, theta))
                      .set("m", m_of(c))
                      .set("m_frac", m_fracs[c[4]])
                      .set("theory_m", channels[c[2]].theory_m(n, theta, eps));
                },
            // The explicit axes make the grid renderable without
            // re-deriving the sweep.
            .wrap =
                [=](Json grid) {
                  const auto list = [](const auto& values, const auto& label) {
                    Json array = Json::array();
                    for (const auto& value : values) {
                      array.push_back(label(value));
                    }
                    return array;
                  };
                  const auto same = [](const auto& value) { return value; };
                  const auto spec_label = [](const auto& spec) {
                    return spec.label();
                  };
                  Json axes = Json::object();
                  axes.set("designs", list(designs, spec_label))
                      .set("solvers", list(roster.names, same))
                      .set("channels", list(channels, spec_label))
                      .set("n", list(ns, same))
                      .set("m_frac", list(m_fracs, same))
                      .set("theta", theta)
                      .set("eps", eps);
                  Json atlas = Json::object();
                  atlas.set("schema", "npd.phase_atlas/1")
                      .set("axes", std::move(axes))
                      .set("cells", grid.at("cells"));
                  return atlas;
                }};
      }};
}

// ------------------------------------------------------------------ fig4

/// Figure 4 required-queries curves for the general noisy channel with
/// symmetric error rates p = q ∈ {10⁻¹ … 10⁻⁵} — the regime-transition
/// figure.  Rooted per (q, n) at salt `uint64(-log10(q)·131) + n`,
/// stream `rep` (pinned by
/// `EngineAgreementTest.Fig4CellsMatchLegacySweepDerivation`).
Declaration fig4(const std::string& name) {
  return {
      "required queries vs n: general channel p=q in {1e-1..1e-5}, "
      "channel-aware centering (Figure 4)",
      join({{theta_spec()},
            max_n_specs(),
            {eps_spec("0.05", "epsilon in the interpolated theory bound")}}),
      [name](const ScenarioParams& params) {
        const double theta = theta_param(name, params);
        const double eps = eps_param(name, params);
        const std::vector<Index> ns = max_n_grid(name, params);
        const std::vector<double> qs{1e-1, 1e-2, 1e-3, 1e-4, 1e-5};
        const auto theory = [=](const Coords& c) {
          return core::theory::channel_sublinear_interpolated(
              ns[c[1]], theta, qs[c[0]], qs[c[0]], eps);
        };
        return Layout{
            .axes = {qs.size(), ns.size()},
            .seeds = SeedPolicy::rooted(
                [=](const Coords& c) {
                  return static_cast<std::uint64_t>(-std::log10(qs[c[0]]) *
                                                    131.0) +
                         static_cast<std::uint64_t>(ns[c[1]]);
                },
                rep_stream),
            .work =
                [=](const Coords& c) {
                  const double q = qs[c[0]];
                  const Index n = ns[c[1]];
                  // Fail-safe cap: 20x the bound.  In the q-dominated
                  // regime at finite n the requirement sits a small
                  // factor above the bound; runs past 20x are reported
                  // capped instead of ground to the generic 1e6 limit.
                  // Channel-aware centering (p, q are known, Section
                  // II-A): the oblivious listing couples the q·Γ offset
                  // with Δ* fluctuations and inflates the requirement by
                  // orders of magnitude at q >= 1e-2 (abl3).
                  harness::RequiredQueriesOptions options;
                  options.max_queries = std::max<Index>(
                      5000, static_cast<Index>(20.0 * theory(c)));
                  options.centering = core::Centering{
                      .offset_per_slot = q, .gain = 1.0 - 2.0 * q};
                  return CellWork{
                      required_queries_job(n, pooling::sublinear_k(n, theta),
                                           pooling::paper_design(n),
                                           bitflip(q, q), options),
                      n};
                },
            .meta =
                [=](const Coords& c) {
                  const Index n = ns[c[1]];
                  return Json::object()
                      .set("n", n)
                      .set("k", pooling::sublinear_k(n, theta))
                      .set("q", qs[c[0]])
                      .set("theory_interpolated", theory(c));
                }};
      }};
}

// ------------------------------------------------------------------ fig6

/// Figure 6 success-rate curves: exact reconstruction vs m at fixed n
/// for the Z-channel at p ∈ {0.1, 0.3, 0.5}, one series per solver
/// (default greedy vs AMP).  Rooted per p at `uint64(p·4051)`, stream
/// `mi·100000 + rep` — the `harness::success_sweep` derivation, shared
/// by every solver series (pinned by
/// `EngineAgreementTest.Fig6CellsMatchLegacySuccessSweep`).
Declaration fig6(const std::string& name) {
  return {
      "success rate vs m at fixed n: Z-channel p in {.1,.3,.5}, one series "
      "per solver (Figure 6)",
      join({{n_spec("1000"), theta_spec()},
            m_step_specs("50", "600"),
            {solvers_spec(
                 "greedy;amp",
                 "registered solver names, ';'-separated (one series each)"),
             design_spec()}}),
      [name](const ScenarioParams& params) {
        const Index n = n_param(name, params);
        const double theta = theta_param(name, params);
        const std::vector<Index> ms = m_step_grid(name, params);
        const solve::DesignSpec design =
            solve::parse_design_spec(params.get_string("design"));
        for (const Index m : ms) {
          require_design_feasible(name, design, n, m);
        }
        const SolverRoster roster = solvers_param(name, params);
        const std::vector<double> ps{0.1, 0.3, 0.5};
        const Index k = pooling::sublinear_k(n, theta);
        // Coordinates: (p, solver, m).
        return Layout{
            .axes = {ps.size(), roster.names.size(), ms.size()},
            .seeds = SeedPolicy::rooted(
                [ps](const Coords& c) {
                  return static_cast<std::uint64_t>(ps[c[0]] * 4051.0);
                },
                point_stream(2, 100'000)),
            .work =
                [=, graph = design.instantiate(n)](const Coords& c) {
                  return CellWork{solve_job(n, k, ms[c[2]], graph,
                                            bitflip(ps[c[0]]),
                                            roster.solvers[c[1]]),
                                  n};
                },
            .meta =
                [=, label = design.label()](const Coords& c) {
                  return Json::object()
                      .set("m", ms[c[2]])
                      .set("p", ps[c[0]])
                      .set("design", label)
                      .set("solver", roster.names[c[1]]);
                }};
      }};
}

// ------------------------------------------------------------- fig2, fig3

/// One curve of a required-queries figure: its label value, its channel
/// and its sweep-root salt.
struct Curve {
  double level;
  solve::ChannelSpec channel;
  std::uint64_t salt;
};

/// Figures 2 and 3, required queries vs n on the paper design: one curve
/// per roster entry over the n log grid.  Rooted per curve at its salt,
/// stream `ni·10'000 + rep` — the `harness::required_queries_sweep`
/// derivation (pinned by
/// `EngineAgreementTest.Fig{2,3}CellsMatchLegacySweepDerivation`).
Declaration required_queries_curves(
    const std::string& name, std::string description, std::string level_key,
    const std::vector<ParamSpec>& extra,
    std::function<std::vector<Curve>(const ScenarioParams&)> roster) {
  return {
      std::move(description),
      join({{theta_spec()}, max_n_specs(), extra}),
      [name, level_key = std::move(level_key),
       roster = std::move(roster)](const ScenarioParams& params) {
        const double theta = theta_param(name, params);
        const std::vector<Curve> curves = roster(params);
        const std::vector<Index> ns = max_n_grid(name, params);
        return Layout{
            .axes = {curves.size(), ns.size()},
            .seeds = SeedPolicy::rooted(
                [curves](const Coords& c) { return curves[c[0]].salt; },
                point_stream(1, 10'000)),
            .work =
                [=](const Coords& c) {
                  const Index n = ns[c[1]];
                  return CellWork{
                      required_queries_job(n, pooling::sublinear_k(n, theta),
                                           pooling::paper_design(n),
                                           curves[c[0]].channel),
                      n};
                },
            .meta =
                [=](const Coords& c) {
                  return Json::object()
                      .set("n", ns[c[1]])
                      .set("k", pooling::sublinear_k(ns[c[1]], theta))
                      .set(level_key, curves[c[0]].level);
                }};
      }};
}

Declaration fig2(const std::string& name) {
  return required_queries_curves(
      name,
      "required queries vs n: Z-channel, p in {.1,.3,.5}, theta=0.25 "
      "(Figure 2)",
      "p", {}, [](const ScenarioParams&) {
        std::vector<Curve> curves;
        for (const double p : {0.1, 0.3, 0.5}) {
          curves.push_back(
              {p, bitflip(p), static_cast<std::uint64_t>(p * 1000.0)});
        }
        return curves;
      });
}

/// The noisy level follows the noiseless baseline (legacy series order).
Declaration fig3(const std::string& name) {
  return required_queries_curves(
      name,
      "required queries vs n: noisy query model vs noiseless, theta=0.25 "
      "(Figure 3)",
      "lambda",
      {{"lambda", ParamSpec::Kind::Double, "1",
        "query noise stddev of the noisy series"}},
      [name](const ScenarioParams& params) {
        const double lambda = params.get_double("lambda");
        require_param(lambda >= 0.0, name, "lambda >= 0");
        return std::vector<Curve>{
            {0.0, gauss(0.0), 0},
            {lambda, gauss(lambda),
             static_cast<std::uint64_t>(lambda * 977.0)}};
      });
}

// ------------------------------------------------------------------ abl1

/// Ablation A1 pool-size sweep over the pool fractions Γ/n ∈ {.05, .1,
/// .25, .5, .75, .9}.  Rooted per fraction at `uint64(fraction·1000)`,
/// stream `rep` (pinned by
/// `EngineAgreementTest.Abl1CellsMatchLegacySweepDerivation`).
Declaration abl1(const std::string& name) {
  return {
      "required queries vs pool fraction Gamma/n, Z-channel, "
      "with-replacement design (Ablation A1)",
      {n_spec("1000"), p_spec("0.1"), theta_spec()},
      [name](const ScenarioParams& params) {
        const Index n = n_param(name, params);
        const double p = rate_param(name, params, "p");
        const Index k = pooling::sublinear_k(n, theta_param(name, params));
        const std::vector<double> fractions{0.05, 0.1, 0.25, 0.5, 0.75, 0.9};
        return Layout{
            .axes = {fractions.size()},
            .seeds = SeedPolicy::rooted(
                [fractions](const Coords& c) {
                  return static_cast<std::uint64_t>(fractions[c[0]] * 1000.0);
                },
                rep_stream),
            .work =
                [=](const Coords& c) {
                  return CellWork{
                      required_queries_job(
                          n, k,
                          pooling::fractional_design(
                              n, fractions[c[0]],
                              pooling::SamplingMode::WithReplacement),
                          bitflip(p)),
                      n};
                },
            .meta =
                [=](const Coords& c) {
                  return Json::object()
                      .set("fraction", fractions[c[0]])
                      .set("gamma", fractions[c[0]] * static_cast<double>(n));
                }};
      }};
}

// ------------------------------------------------------------------ abl2

/// Ablation A2 sampling-discipline comparison: greedy success vs m for
/// the paper's with-replacement design, the without-replacement and
/// Bernoulli variants, and a constant-column-weight design.  Rooted: the
/// first three series follow `harness::success_sweep` with salts 0/1/3
/// and stream `mi·100000 + rep`; the ccw series uses salt
/// `2 + mi·131`, stream `rep` (pinned by
/// `EngineAgreementTest.Abl2CellsMatchLegacyDesignComparison`).
Declaration abl2(const std::string& name) {
  return {
      "greedy success vs m for four query designs: with/without "
      "replacement, Bernoulli, constant column weight (Ablation A2)",
      join({{n_spec("1000"), p_spec("0.1"), theta_spec()},
            m_step_specs("50", "400")}),
      [name](const ScenarioParams& params) {
        const Index n = n_param(name, params);
        const double p = rate_param(name, params, "p");
        const Index k = pooling::sublinear_k(n, theta_param(name, params));
        const std::vector<Index> ms = m_step_grid(name, params);
        const std::vector<std::string> labels{
            "with_replacement", "without_replacement", "bernoulli",
            "constant_column_weight"};
        constexpr std::size_t kCcw = 3;
        const std::vector<pooling::QueryDesign> designs{
            pooling::paper_design(n),
            pooling::fractional_design(
                n, 0.5, pooling::SamplingMode::WithoutReplacement),
            pooling::fractional_design(n, 0.5,
                                       pooling::SamplingMode::Bernoulli)};
        const std::vector<std::uint64_t> salts{0, 1, 3};
        const auto stream = point_stream(1, 100'000);
        // Coordinates: (design, m).
        return Layout{
            .axes = {labels.size(), ms.size()},
            .seeds = SeedPolicy::rooted(
                [salts](const Coords& c) {
                  return c[0] == kCcw ? 2 + c[1] * 131 : salts[c[0]];
                },
                [stream](const Coords& c, Index rep) {
                  return c[0] == kCcw ? rep_stream(c, rep) : stream(c, rep);
                }),
            .work =
                [=, greedy = std::shared_ptr<const solve::Reconstructor>(
                        solve::builtin_solvers().make("greedy", ""))](
                    const Coords& c) {
                  const Index m = ms[c[1]];
                  if (c[0] != kCcw) {
                    return CellWork{solve_job(n, k, m, per_query(designs[c[0]]),
                                              bitflip(p), greedy),
                                    n};
                  }
                  const Index weight = std::max<Index>(
                      1, static_cast<Index>(core::theory::gamma_constant() *
                                            static_cast<double>(m)));
                  return CellWork{
                      [=](rand::Rng& rng) -> Metrics {
                        const auto channel = noise::make_z_channel(p);
                        core::Instance instance;
                        instance.truth = pooling::make_ground_truth(n, k, rng);
                        instance.graph =
                            pooling::make_constant_column_weight_graph(
                                n, m, std::min(weight, m), rng);
                        instance.results = core::measure_all(
                            instance.graph, instance.truth, *channel, rng);
                        return success_metrics(
                            core::greedy_reconstruct(instance).estimate,
                            instance.truth);
                      },
                      n};
                },
            .meta =
                [=](const Coords& c) {
                  return Json::object()
                      .set("m", ms[c[1]])
                      .set("design", labels[c[0]]);
                }};
      }};
}

// ------------------------------------------------------------------ abl3

/// Ablation A3 score centering: raw Ψ vs the oblivious listing vs the
/// analysis' channel-aware centering, all three evaluated **on the same
/// instance** per repetition.  Rooted per m index at `mi·17`, stream
/// `rep` (pinned by
/// `EngineAgreementTest.Abl3CellsMatchLegacyCenteringComparison`).
Declaration abl3(const std::string& name) {
  return {
      "score centering: raw Psi vs oblivious vs channel-aware on the "
      "general (p, q) channel (Ablation A3)",
      join({{n_spec("1000"), p_spec("0.1", "false-negative rate"),
             {"q", ParamSpec::Kind::Double, "0.05", "false-positive rate"},
             theta_spec()},
            m_step_specs("400", "4000")}),
      [name](const ScenarioParams& params) {
        const Index n = n_param(name, params);
        const double p = rate_param(name, params, "p");
        const double q = rate_param(name, params, "q");
        require_param(p + q < 1.0, name, "p + q < 1");
        const Index k = pooling::sublinear_k(n, theta_param(name, params));
        const std::vector<Index> ms = m_step_grid(name, params);
        return Layout{
            .axes = {ms.size()},
            .seeds = SeedPolicy::rooted(
                [](const Coords& c) { return c[0] * 17; }, rep_stream),
            .work =
                [=](const Coords& c) {
                  const Index m = ms[c[0]];
                  return CellWork{
                      [=](rand::Rng& rng) -> Metrics {
                        const noise::BitFlipChannel channel(p, q);
                        const core::Instance instance = core::make_instance(
                            n, k, m, pooling::paper_design(n), channel, rng);
                        const core::ScoreState oblivious =
                            core::compute_scores(instance);
                        const core::ScoreState aware = core::compute_scores(
                            instance, core::Centering{.offset_per_slot = q,
                                                      .gain = 1.0 - p - q});
                        const Metrics raw = success_metrics(
                            core::select_top_k(oblivious.raw_psi(), k).estimate,
                            instance.truth);
                        const Metrics obl = success_metrics(
                            core::select_top_k(oblivious.centered_scores(), k)
                                .estimate,
                            instance.truth);
                        const Metrics awr = success_metrics(
                            core::select_top_k(aware.centered_scores(), k)
                                .estimate,
                            instance.truth);
                        return {{"raw_success", raw[0].value},
                                {"oblivious_success", obl[0].value},
                                {"aware_success", awr[0].value},
                                {"raw_overlap", raw[1].value},
                                {"oblivious_overlap", obl[1].value},
                                {"aware_overlap", awr[1].value}};
                      },
                      n};
                },
            .meta =
                [ms](const Coords& c) {
                  return Json::object().set("m", ms[c[0]]);
                }};
      }};
}

// ------------------------------------------------------------------ abl4

/// Ablation A4 two-stage local correction: greedy vs two-stage vs AMP on
/// one Z-channel success curve.  Rooted: every series shares salt 0,
/// stream `mi·100000 + rep` — three `harness::success_sweep`s off one
/// base seed (pinned by
/// `EngineAgreementTest.Abl4CellsMatchLegacySuccessSweeps`).
Declaration abl4(const std::string& name) {
  return {
      "greedy vs two-stage local correction vs AMP: success vs m on the "
      "Z-channel (Ablation A4)",
      join({{n_spec("1000"), p_spec("0.3"), theta_spec()},
            m_step_specs("50", "500"),
            {solvers_spec(
                "greedy;two_stage;amp",
                "registered solver names, ';'-separated (one series each)")}}),
      [name](const ScenarioParams& params) {
        const Index n = n_param(name, params);
        const double p = rate_param(name, params, "p");
        const Index k = pooling::sublinear_k(n, theta_param(name, params));
        const std::vector<Index> ms = m_step_grid(name, params);
        const SolverRoster roster = solvers_param(name, params);
        // Coordinates: (solver, m).
        return Layout{
            .axes = {roster.names.size(), ms.size()},
            .seeds = SeedPolicy::rooted(
                [](const Coords&) { return std::uint64_t{0}; },
                point_stream(1, 100'000)),
            .work =
                [=, design = per_query(pooling::paper_design(n))](
                    const Coords& c) {
                  return CellWork{solve_job(n, k, ms[c[1]], design, bitflip(p),
                                            roster.solvers[c[0]]),
                                  n};
                },
            .meta =
                [=](const Coords& c) {
                  return Json::object()
                      .set("m", ms[c[1]])
                      .set("solver", roster.names[c[0]]);
                }};
      }};
}

// ------------------------------------------------------------------ abl5

/// Ablation A5, the Theorem 2 phase transition: greedy success at fixed
/// m (twice the noiseless bound, so the collapse is attributable to noise
/// alone) across a λ roster — absolute levels, multiples of the critical
/// scale √(m/ln n), and the failure regime λ² ∈ {m, 4m}.  Rooted per λ
/// at `uint64(λ·97)`, stream `rep` (pinned by
/// `EngineAgreementTest.Abl5CellsMatchLegacySweepDerivation`).
Declaration abl5(const std::string& name) {
  return {
      "Theorem 2 phase transition: greedy success vs query-noise level "
      "lambda at fixed m (Ablation A5)",
      {n_spec("1000"), theta_spec()},
      [name](const ScenarioParams& params) {
        const Index n = n_param(name, params);
        const double theta = theta_param(name, params);
        const Index k = pooling::sublinear_k(n, theta);
        const auto m = static_cast<Index>(std::ceil(
            2.0 * core::theory::noisy_query_sublinear(n, theta, 0.1)));
        const double critical = std::sqrt(static_cast<double>(m) /
                                          std::log(static_cast<double>(n)));
        const double root_m = std::sqrt(static_cast<double>(m));
        const std::vector<double> lambdas{0.0, 1.0, 2.0, 4.0, 8.0,
                                          0.25 * critical, 0.5 * critical,
                                          critical, 2.0 * critical,
                                          root_m,         // λ² = m
                                          2.0 * root_m};  // λ² = 4m
        return Layout{
            .axes = {lambdas.size()},
            .seeds = SeedPolicy::rooted(
                [lambdas](const Coords& c) {
                  return static_cast<std::uint64_t>(lambdas[c[0]] * 97.0);
                },
                rep_stream),
            .work =
                [=, design = per_query(pooling::paper_design(n)),
                 greedy = std::shared_ptr<const solve::Reconstructor>(
                     solve::builtin_solvers().make("greedy", ""))](
                    const Coords& c) {
                  return CellWork{solve_job(n, k, m, design,
                                            gauss(lambdas[c[0]]), greedy),
                                  n};
                },
            .meta =
                [=](const Coords& c) {
                  const double lambda = lambdas[c[0]];
                  return Json::object()
                      .set("lambda", lambda)
                      .set("m", m)
                      .set("ratio", lambda > 0.0
                                        ? core::theory::noisy_query_noise_ratio(
                                              lambda, static_cast<double>(m),
                                              n)
                                        : 0.0);
                }};
      }};
}

// ------------------------------------------------------------------ abl6

/// The state-evolution fixed point of the Bayes denoiser at (n, k, m, p)
/// — deterministic, so it lands in the cell metadata as `se_tau2`.
double se_fixed_point(Index n, Index k, Index m, double p) {
  const double pi = static_cast<double>(k) / static_cast<double>(n);
  const noise::BitFlipChannel channel(p, 0.0);
  const auto lin = channel.linearization(n, k, n / 2);
  const double gamma_pool = static_cast<double>(n) / 2.0;
  const double entry_var = gamma_pool / static_cast<double>(n) *
                           (1.0 - 1.0 / static_cast<double>(n));
  const double s2 = static_cast<double>(m) * entry_var;
  amp::StateEvolutionParams params;
  params.pi = pi;
  params.n_over_m = static_cast<double>(n) / static_cast<double>(m);
  params.noise_var = lin.noise_var / (lin.gain * lin.gain * s2);
  const amp::BayesBernoulliDenoiser bayes(pi);
  return amp::run_state_evolution(params, bayes).tau2.back();
}

/// Ablation A6 AMP configuration: the Bayes-optimal Bernoulli denoiser
/// vs the soft-threshold (LASSO) denoiser vs damped Bayes iterations,
/// all three on the **same instance** per repetition.  Rooted per m
/// index at `mi·71`, stream `rep` (pinned by
/// `EngineAgreementTest.Abl6CellsMatchLegacyDenoiserVariants`).
Declaration abl6(const std::string& name) {
  return {
      "AMP configuration: Bayes vs soft-threshold denoiser, undamped vs "
      "damped, with the SE fixed point (Ablation A6)",
      join({{n_spec("1000"), p_spec("0.1"), theta_spec()},
            m_step_specs("50", "400")}),
      [name](const ScenarioParams& params) {
        const Index n = n_param(name, params);
        const double p = rate_param(name, params, "p");
        const Index k = pooling::sublinear_k(n, theta_param(name, params));
        const std::vector<Index> ms = m_step_grid(name, params);
        return Layout{
            .axes = {ms.size()},
            .seeds = SeedPolicy::rooted(
                [](const Coords& c) { return c[0] * 71; }, rep_stream),
            .work =
                [=](const Coords& c) {
                  const Index m = ms[c[0]];
                  // Three AMP solves per job.
                  return CellWork{
                      [=](rand::Rng& rng) -> Metrics {
                        const noise::BitFlipChannel channel(p, 0.0);
                        const auto lin = channel.linearization(n, k, n / 2);
                        const core::Instance instance = core::make_instance(
                            n, k, m, pooling::paper_design(n), channel, rng);
                        const amp::AmpProblem problem =
                            amp::standardize(instance, lin);
                        const amp::BayesBernoulliDenoiser bayes(
                            static_cast<double>(k) / static_cast<double>(n));
                        const amp::SoftThresholdDenoiser soft(1.5);
                        const auto variant = [&](const amp::Denoiser& denoiser,
                                                 double damping) {
                          amp::AmpOptions options;
                          options.damping = damping;
                          return success_metrics(
                              amp::run_amp(problem, denoiser, options)
                                  .estimate,
                              instance.truth);
                        };
                        const Metrics bayes_run = variant(bayes, 1.0);
                        const Metrics soft_run = variant(soft, 1.0);
                        const Metrics damped_run = variant(bayes, 0.7);
                        return {{"bayes_success", bayes_run[0].value},
                                {"soft_success", soft_run[0].value},
                                {"bayes_damped_success", damped_run[0].value},
                                {"bayes_overlap", bayes_run[1].value},
                                {"soft_overlap", soft_run[1].value},
                                {"bayes_damped_overlap", damped_run[1].value}};
                      },
                      4 * n};
                },
            .meta =
                [=](const Coords& c) {
                  return Json::object()
                      .set("m", ms[c[0]])
                      .set("se_tau2", se_fixed_point(n, k, ms[c[0]], p));
                }};
      }};
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  const std::pair<const char*, Declare> builtins[] = {
      {"fig5", fig5},
      {"abl1", abl1},
      {"abl2", abl2},
      {"abl3", abl3},
      {"abl4", abl4},
      {"abl5", abl5},
      {"abl6", abl6},
      {"abl7", abl7},
      {"fig2", fig2},
      {"fig3", fig3},
      {"fig4", fig4},
      {"fig6", fig6},
      {"solver_sweep", solver_sweep},
      {"phase_atlas", phase_atlas},
      // `fixed_m` plus the historical per-algorithm names (deprecated
      // aliases: another `solver` default and seed stream key; prefer
      // `fixed_m` with `solver=<name>`).
      {"fixed_m",
       [](const std::string& name) { return fixed_m(name, "greedy"); }},
      {"fixed_m_greedy",
       [](const std::string& name) { return fixed_m(name, "greedy"); }},
      {"fixed_m_amp",
       [](const std::string& name) { return fixed_m(name, "amp"); }},
      {"fixed_m_two_stage",
       [](const std::string& name) { return fixed_m(name, "two_stage"); }},
  };
  for (const auto& [name, declare] : builtins) {
    registry.add(std::make_unique<GridScenario>(name, declare));
  }
}

}  // namespace npd::engine
