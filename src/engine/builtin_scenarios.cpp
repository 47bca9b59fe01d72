#include "engine/builtin_scenarios.hpp"

#include <algorithm>
#include <array>
#include <cmath>
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

/// Bad user parameters must surface as clean `std::invalid_argument`s
/// naming the scenario and constraint — before any job is scheduled —
/// not as contract violations from deep library code on a worker thread.
void require_param(bool condition, const std::string& scenario,
                   const std::string& constraint) {
  if (!condition) {
    throw std::invalid_argument(scenario + ": need " + constraint);
  }
}

/// Shared validation for (theta, eps) theory-bound parameters.
void require_theory_params(const std::string& scenario, double theta,
                           double eps) {
  require_param(theta > 0.0 && theta < 1.0, scenario, "theta in (0, 1)");
  require_param(eps > 0.0, scenario, "eps > 0");
}

/// The `design=` parameter every design-generic scenario exposes.
ParamSpec design_param_spec() {
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

// ------------------------------------------------------------------ fig5

/// Figure 5 required-queries boxplots.  The grid, channel roster, labels
/// and — critically — the per-repetition seed streams are fixed: per
/// (channel, rep) the stream is `Rng(seed + salt_channel).derive(rep)`,
/// the single-point `harness::required_queries_sweep` derivation,
/// independent of n (pinned by
/// `EngineAgreementTest.Fig5CellsMatchLegacySweepDerivation`).
class Fig5Scenario final : public Scenario {
 public:
  std::string name() const override { return "fig5"; }

  std::string description() const override {
    return "required-queries boxplots: Z-channel p in {.1,.3,.5}, query "
           "noise lambda in {0..3} (Figure 5)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"max_n", ParamSpec::Kind::Int, "10000",
         "largest n of the {1e3, 1e4, 1e5} grid to run"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const double theta = params.get_double("theta");
    const auto max_n = static_cast<Index>(params.get_int("max_n"));
    const std::vector<Index> ns = grid(max_n);
    const std::vector<Config> configs = channel_roster();

    std::vector<Job> jobs;
    jobs.reserve(ns.size() * configs.size() *
                 static_cast<std::size_t>(config.reps));
    for (std::size_t ni = 0; ni < ns.size(); ++ni) {
      const Index n = ns[ni];
      for (std::size_t c = 0; c < configs.size(); ++c) {
        const Config& channel_config = configs[c];
        const Index cell =
            static_cast<Index>(ni * configs.size() + c);
        const rand::Rng root(config.seed + channel_config.salt);
        for (Index rep = 0; rep < config.reps; ++rep) {
          Job job;
          job.cell = cell;
          job.rep = rep;
          job.seed = root.derive(static_cast<std::uint64_t>(rep)).seed();
          job.cost_hint = n;
          job.run = [n, theta, channel_config](rand::Rng& rng) -> Metrics {
            const Index k = pooling::sublinear_k(n, theta);
            const auto channel = channel_config.factory(n, k);
            const auto result = harness::required_queries(
                n, k, pooling::paper_design(n), *channel, rng);
            return {{"m", static_cast<double>(result.m)},
                    {"reached", result.reached ? 1.0 : 0.0}};
          };
          jobs.push_back(std::move(job));
        }
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const auto max_n = static_cast<Index>(params.get_int("max_n"));
    const std::vector<Index> ns = grid(max_n);
    const std::vector<Config> configs = channel_roster();
    return aggregate_cells(results, [&](Index cell) {
      const auto ni = static_cast<std::size_t>(cell) / configs.size();
      const auto c = static_cast<std::size_t>(cell) % configs.size();
      Json meta = Json::object();
      meta.set("n", ns[ni])
          .set("channel", configs[c].label)
          .set("channel_id", static_cast<std::int64_t>(c));
      return meta;
    });
  }

 private:
  struct Config {
    std::string label;
    harness::ChannelFactory factory;
    std::uint64_t salt;
  };

  static std::vector<Index> grid(Index max_n) {
    std::vector<Index> ns;
    for (const Index n : {Index{1000}, Index{10000}, Index{100000}}) {
      if (n <= max_n) {
        ns.push_back(n);
      }
    }
    if (ns.empty()) {
      throw std::invalid_argument("fig5: max_n below the smallest grid "
                                  "point (1000)");
    }
    return ns;
  }

  /// The Figure 5 channel roster, salts included.
  static std::vector<Config> channel_roster() {
    std::vector<Config> configs;
    for (const double p : {0.1, 0.3, 0.5}) {
      configs.push_back(Config{
          "z(p=" + std::to_string(p).substr(0, 3) + ")",
          [p](Index, Index) { return noise::make_z_channel(p); },
          static_cast<std::uint64_t>(p * 8009.0)});
    }
    for (const double lambda : {0.0, 1.0, 2.0, 3.0}) {
      configs.push_back(Config{
          "gauss(l=" + std::to_string(static_cast<int>(lambda)) + ")",
          [lambda](Index, Index) {
            return lambda > 0.0 ? noise::make_gaussian_channel(lambda)
                                : noise::make_noiseless();
          },
          1000003 + static_cast<std::uint64_t>(lambda * 631.0)});
    }
    return configs;
  }
};

// ------------------------------------------------------------------ abl7

/// Ablation A7 distributed cost accounting.  One instance per n, seeded
/// `Rng(seed + n)`; the measurement is a deterministic function of the
/// instance, so the scenario schedules a single job per cell
/// (repetitions would reproduce the same numbers; pinned by
/// `EngineAgreementTest.Abl7IsRepCountInvariant`).
class Abl7Scenario final : public Scenario {
 public:
  std::string name() const override { return "abl7"; }

  std::string description() const override {
    return "distributed cost: greedy rounds/messages vs measured and "
           "sparse-modelled distributed AMP (Ablation A7)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"max_n", ParamSpec::Kind::Int, "4000", "largest n of the log grid"},
        {"amp_sim_max_n", ParamSpec::Kind::Int, "1000",
         "largest n for the faithful (dense) AMP simulation"},
        {"p", ParamSpec::Kind::Double, "0.1", "Z-channel flip probability"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const auto max_n = static_cast<Index>(params.get_int("max_n"));
    const auto amp_sim_max_n =
        static_cast<Index>(params.get_int("amp_sim_max_n"));
    const double p = params.get_double("p");
    const double theta = params.get_double("theta");
    const std::vector<Index> ns = harness::log_grid(100, max_n, 2);

    std::vector<Job> jobs;
    jobs.reserve(ns.size());
    for (std::size_t ni = 0; ni < ns.size(); ++ni) {
      const Index n = ns[ni];
      // Legacy derivation: the instance depends on (seed, n) only, and
      // the cost accounting is a deterministic function of the instance
      // — extra repetitions would reproduce the same numbers, so the
      // scenario always schedules exactly one job per cell.
      Job job;
      job.cell = static_cast<Index>(ni);
      job.rep = 0;
      job.seed = config.seed + static_cast<std::uint64_t>(n);
      // The dense AMP simulation dominates where it runs.
      job.cost_hint = n <= amp_sim_max_n ? 8 * n : n;
      job.run = [n, p, theta, amp_sim_max_n](rand::Rng& rng) -> Metrics {
        return measure(n, p, theta, amp_sim_max_n, rng);
      };
      jobs.push_back(std::move(job));
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const auto max_n = static_cast<Index>(params.get_int("max_n"));
    const std::vector<Index> ns = harness::log_grid(100, max_n, 2);
    return aggregate_cells(results, [&](Index cell) {
      Json meta = Json::object();
      meta.set("n", ns[static_cast<std::size_t>(cell)]);
      return meta;
    });
  }

 private:
  static Metrics measure(Index n, double p, double theta,
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
    const double sparse_model =
        static_cast<double>(2 * distinct_incidences) *
        static_cast<double>(centralized_amp.iterations);

    const double reference =
        measured_msgs > 0.0 ? measured_msgs : sparse_model;
    const double ratio =
        reference / static_cast<double>(greedy.stats.messages);

    return {{"m", static_cast<double>(m)},
            {"greedy_rounds", static_cast<double>(greedy.stats.rounds)},
            {"greedy_messages", static_cast<double>(greedy.stats.messages)},
            {"greedy_bytes", static_cast<double>(greedy.stats.bytes)},
            {"amp_iterations",
             static_cast<double>(centralized_amp.iterations)},
            {"amp_messages_measured", measured_msgs},
            {"amp_rounds_measured", measured_rounds},
            {"amp_messages_sparse_model", sparse_model},
            {"msg_ratio", ratio}};
  }
};

// --------------------------------------------------------------- fixed_m

/// Fixed-m reconstruction over an m-grid placed relative to the
/// Theorem 1 Z-channel bound (the Figure 6/7 protocol).  The algorithm
/// is any registered solver, selected with `solver=<name>` (plus
/// `solver_params=key=value[;...]`); the historical per-algorithm
/// scenarios `fixed_m_{greedy,amp,two_stage}` remain registered as
/// aliases that only pin a different `solver` default (their seed
/// streams, keyed on the scenario name, are unchanged).  Uses the
/// engine's canonical stream derivation.
class FixedMScenario final : public Scenario {
 public:
  FixedMScenario(std::string name, std::string default_solver)
      : name_(std::move(name)), default_solver_(std::move(default_solver)) {}

  std::string name() const override { return name_; }

  std::string description() const override {
    return "fixed-m reconstruction with any registered solver (default " +
           default_solver_ +
           "): exact-success rate and overlap over an m-grid around the "
           "Theorem 1 bound";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"n", ParamSpec::Kind::Int, "600", "number of agents"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"p", ParamSpec::Kind::Double, "0.1", "Z-channel flip probability"},
        {"m_points", ParamSpec::Kind::Int, "5", "grid points over m"},
        {"m_lo_frac", ParamSpec::Kind::Double, "0.5",
         "lowest m as a fraction of the Theorem 1 bound"},
        {"m_hi_frac", ParamSpec::Kind::Double, "1.5",
         "highest m as a fraction of the Theorem 1 bound"},
        {"solver", ParamSpec::Kind::String, default_solver_,
         "registered solver name (see npd_run --list-solvers)"},
        {"solver_params", ParamSpec::Kind::String, "",
         "solver options as key=value[;key=value...]"},
        design_param_spec(),
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double theta = params.get_double("theta");
    const double p = params.get_double("p");
    require_param(n >= 2, name_, "n >= 2");
    require_param(theta > 0.0 && theta < 1.0, name_, "theta in (0, 1)");
    require_param(p >= 0.0 && p < 1.0, name_, "p in [0, 1)");
    const Index k = pooling::sublinear_k(n, theta);
    const solve::DesignSpec design_spec =
        solve::parse_design_spec(params.get_string("design"));
    const pooling::GraphDesign design = design_spec.instantiate(n);
    const std::vector<Index> ms = m_grid(params);
    for (const Index m : ms) {
      require_design_feasible(name_, design_spec, n, m);
    }
    // Resolving the solver here makes unknown names/options fail before
    // any job runs; the shared instance is safe for concurrent jobs
    // (solve is const and stateless).
    const std::shared_ptr<const solve::Reconstructor> solver =
        solve::builtin_solvers().make(params.get_string("solver"),
                                      params.get_string("solver_params"));

    std::vector<Job> jobs;
    jobs.reserve(ms.size() * static_cast<std::size_t>(config.reps));
    for (std::size_t mi = 0; mi < ms.size(); ++mi) {
      const Index m = ms[mi];
      for (Index rep = 0; rep < config.reps; ++rep) {
        Job job;
        job.cell = static_cast<Index>(mi);
        job.rep = rep;
        job.seed =
            derive_job_seed(config.seed, name_, job.cell, rep);
        job.cost_hint = n;
        job.run = [n, k, m, p, design, solver](rand::Rng& rng) -> Metrics {
          const noise::BitFlipChannel job_channel(p, 0.0);
          const core::Instance instance =
              core::make_instance(n, k, m, design, job_channel, rng);
          const solve::SolveResult result =
              solver->solve(instance, job_channel, rng);
          return {{"success",
                   core::exact_success(result.estimate, instance.truth)
                       ? 1.0
                       : 0.0},
                  {"overlap", core::overlap(result.estimate,
                                            instance.truth)}};
        };
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const std::vector<Index> ms = m_grid(params);
    const std::string design =
        solve::parse_design_spec(params.get_string("design")).label();
    return aggregate_cells(results, [&](Index cell) {
      Json meta = Json::object();
      meta.set("m", ms[static_cast<std::size_t>(cell)]).set("design", design);
      return meta;
    });
  }

 private:
  static std::vector<Index> m_grid(const ScenarioParams& params) {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double theta = params.get_double("theta");
    const double p = params.get_double("p");
    const auto points = params.get_int("m_points");
    const double lo = params.get_double("m_lo_frac");
    const double hi = params.get_double("m_hi_frac");
    if (points < 1 || lo <= 0.0 || hi < lo) {
      throw std::invalid_argument(
          "fixed_m: need m_points >= 1 and 0 < m_lo_frac <= m_hi_frac");
    }
    const double bound =
        core::theory::z_channel_sublinear(n, theta, p, 0.1);
    std::vector<Index> ms;
    ms.reserve(static_cast<std::size_t>(points));
    for (long long i = 0; i < points; ++i) {
      const double frac =
          points == 1 ? lo
                      : lo + (hi - lo) * static_cast<double>(i) /
                                 static_cast<double>(points - 1);
      const auto m = static_cast<Index>(std::ceil(frac * bound));
      ms.push_back(m < 1 ? 1 : m);
    }
    return ms;
  }

  std::string name_;
  std::string default_solver_;
};

// ----------------------------------------------------------- solver_sweep

/// The generic reconstruction scenario: any registered solver over an
/// (n, m, channel) grid.  n runs over a log grid, m sits at a fixed
/// fraction of the channel's theory bound, and the channel is a textual
/// spec (solve/channel_spec.hpp).  Alongside success/overlap it records
/// the solver's convergence info and — for distributed solvers — the
/// network cost, so one scenario covers the paper's whole
/// algorithm-comparison story.
class SolverSweepScenario final : public Scenario {
 public:
  std::string name() const override { return "solver_sweep"; }

  std::string description() const override {
    return "any registered solver over an (n, m, channel) grid: success, "
           "overlap, convergence, network cost";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"solver", ParamSpec::Kind::String, "greedy",
         "registered solver name (see npd_run --list-solvers)"},
        {"solver_params", ParamSpec::Kind::String, "",
         "solver options as key=value[;key=value...]"},
        {"channel", ParamSpec::Kind::String, "z:0.1",
         "channel spec: noiseless | z:<p> | bitflip:<p>:<q> | "
         "gauss:<lambda>"},
        design_param_spec(),
        {"n_lo", ParamSpec::Kind::Int, "200", "smallest n of the log grid"},
        {"n_hi", ParamSpec::Kind::Int, "400", "largest n of the log grid"},
        {"n_ppd", ParamSpec::Kind::Int, "2",
         "log-grid points per decade over n"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"m_frac", ParamSpec::Kind::Double, "1.2",
         "queries as a fraction of the channel's theory bound"},
        {"eps", ParamSpec::Kind::Double, "0.1",
         "epsilon in the theory bound"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const solve::ChannelSpec spec =
        solve::parse_channel_spec(params.get_string("channel"));
    const solve::DesignSpec design_spec =
        solve::parse_design_spec(params.get_string("design"));
    const double theta = params.get_double("theta");
    const double m_frac = params.get_double("m_frac");
    const double eps = params.get_double("eps");
    require_param(m_frac > 0.0, "solver_sweep", "m_frac > 0");
    require_theory_params("solver_sweep", theta, eps);
    const std::vector<Index> ns = grid(params);
    const std::shared_ptr<const solve::Reconstructor> solver =
        solve::builtin_solvers().make(params.get_string("solver"),
                                      params.get_string("solver_params"));

    std::vector<Job> jobs;
    jobs.reserve(ns.size() * static_cast<std::size_t>(config.reps));
    for (std::size_t ni = 0; ni < ns.size(); ++ni) {
      const Index n = ns[ni];
      const Index k = pooling::sublinear_k(n, theta);
      const Index m = m_of(n, theta, m_frac, eps, spec);
      require_design_feasible("solver_sweep", design_spec, n, m);
      const pooling::GraphDesign design = design_spec.instantiate(n);
      for (Index rep = 0; rep < config.reps; ++rep) {
        Job job;
        job.cell = static_cast<Index>(ni);
        job.rep = rep;
        job.seed = derive_job_seed(config.seed, "solver_sweep", job.cell,
                                   rep);
        job.cost_hint = n;
        job.run = [n, k, m, spec, design, solver](rand::Rng& rng) -> Metrics {
          const auto channel = spec.make();
          const core::Instance instance =
              core::make_instance(n, k, m, design, *channel, rng);
          const solve::SolveResult result =
              solver->solve(instance, *channel, rng);
          Metrics metrics{
              {"success",
               core::exact_success(result.estimate, instance.truth) ? 1.0
                                                                    : 0.0},
              {"overlap", core::overlap(result.estimate, instance.truth)},
              {"iterations", static_cast<double>(result.iterations)},
              {"converged", result.converged ? 1.0 : 0.0}};
          if (result.net.has_value()) {
            metrics.push_back(
                {"net_rounds", static_cast<double>(result.net->rounds)});
            metrics.push_back(
                {"net_messages",
                 static_cast<double>(result.net->messages)});
            metrics.push_back(
                {"net_bytes", static_cast<double>(result.net->bytes)});
          }
          return metrics;
        };
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const solve::ChannelSpec spec =
        solve::parse_channel_spec(params.get_string("channel"));
    const double theta = params.get_double("theta");
    const double m_frac = params.get_double("m_frac");
    const double eps = params.get_double("eps");
    const std::vector<Index> ns = grid(params);
    const std::string solver = params.get_string("solver");
    const std::string design =
        solve::parse_design_spec(params.get_string("design")).label();
    return aggregate_cells(results, [&](Index cell) {
      const Index n = ns[static_cast<std::size_t>(cell)];
      Json meta = Json::object();
      meta.set("n", n)
          .set("k", pooling::sublinear_k(n, theta))
          .set("m", m_of(n, theta, m_frac, eps, spec))
          .set("channel", spec.label())
          .set("design", design)
          .set("solver", solver);
      return meta;
    });
  }

 private:
  static std::vector<Index> grid(const ScenarioParams& params) {
    const auto n_lo = static_cast<Index>(params.get_int("n_lo"));
    const auto n_hi = static_cast<Index>(params.get_int("n_hi"));
    const auto n_ppd = static_cast<Index>(params.get_int("n_ppd"));
    require_param(n_lo >= 2 && n_hi >= n_lo, "solver_sweep",
                  "2 <= n_lo <= n_hi");
    require_param(n_ppd >= 1, "solver_sweep", "n_ppd >= 1");
    return harness::log_grid(n_lo, n_hi, n_ppd);
  }

  static Index m_of(Index n, double theta, double m_frac, double eps,
                    const solve::ChannelSpec& spec) {
    const auto m = static_cast<Index>(
        std::ceil(m_frac * spec.theory_m(n, theta, eps)));
    return m < 1 ? 1 : m;
  }
};

// ------------------------------------------------------------ phase_atlas

/// The phase-transition atlas: empirical success probability over the
/// full (design × solver × channel × n × m_frac) product grid, every
/// cell annotated with the channel's information-theoretic query bound
/// (Scarlett–Cevher 2017 / Theorems 1–2) so the m_frac axis reads
/// directly as "fraction of the theory threshold".  The aggregate is a
/// self-describing `npd.phase_atlas/1` document — explicit axes plus the
/// per-cell success-rate/error summaries — that docs/phase_atlas.md
/// shows how to render as a heatmap.  Like every engine aggregate it is
/// bit-identical across thread counts and `--shard`/`npd_merge`, so big
/// atlases compose with `npd_launch`.
class PhaseAtlasScenario final : public Scenario {
 public:
  std::string name() const override { return "phase_atlas"; }

  std::string description() const override {
    return "success-probability atlas over (design x solver x channel x n "
           "x m_frac) with theory-threshold annotations";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"designs", ParamSpec::Kind::String, "paper;regular:6",
         "design specs, ';'-separated: paper | wr:<frac> | wor:<frac> | "
         "bernoulli:<frac> | regular:<delta>"},
        {"solvers", ParamSpec::Kind::String, "greedy",
         "registered solver names, ';'-separated"},
        {"channels", ParamSpec::Kind::String, "z:0.05;z:0.2",
         "channel specs, ';'-separated: noiseless | z:<p> | "
         "bitflip:<p>:<q> | gauss:<lambda>"},
        {"n_lo", ParamSpec::Kind::Int, "200", "smallest n of the log grid"},
        {"n_hi", ParamSpec::Kind::Int, "400", "largest n of the log grid"},
        {"n_ppd", ParamSpec::Kind::Int, "2",
         "log-grid points per decade over n"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"m_fracs", ParamSpec::Kind::String, "0.6;1;1.4",
         "queries as fractions of each channel's theory bound, "
         "';'-separated (1 = the threshold line)"},
        {"eps", ParamSpec::Kind::Double, "0.1",
         "epsilon in the theory bound"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const Axes axes = resolve(params);
    // Resolve every solver before any job is scheduled.
    std::vector<std::shared_ptr<const solve::Reconstructor>> solvers;
    solvers.reserve(axes.solvers.size());
    for (const std::string& solver_name : axes.solvers) {
      solvers.push_back(solve::builtin_solvers().make(solver_name, ""));
    }

    std::vector<Job> jobs;
    jobs.reserve(axes.cell_count() * static_cast<std::size_t>(config.reps));
    for (std::size_t di = 0; di < axes.designs.size(); ++di) {
      for (std::size_t si = 0; si < axes.solvers.size(); ++si) {
        for (std::size_t ci = 0; ci < axes.channels.size(); ++ci) {
          const solve::ChannelSpec& chan = axes.channels[ci];
          for (std::size_t ni = 0; ni < axes.ns.size(); ++ni) {
            const Index n = axes.ns[ni];
            const Index k = pooling::sublinear_k(n, axes.theta);
            for (std::size_t fi = 0; fi < axes.m_fracs.size(); ++fi) {
              const Index m = m_of(n, axes.theta, axes.m_fracs[fi],
                                   axes.eps, chan);
              require_design_feasible("phase_atlas", axes.designs[di], n,
                                      m);
              const pooling::GraphDesign design =
                  axes.designs[di].instantiate(n);
              const std::shared_ptr<const solve::Reconstructor> solver =
                  solvers[si];
              const Index cell = axes.cell_of(di, si, ci, ni, fi);
              for (Index rep = 0; rep < config.reps; ++rep) {
                Job job;
                job.cell = cell;
                job.rep = rep;
                job.seed =
                    derive_job_seed(config.seed, "phase_atlas", cell, rep);
                job.cost_hint = n;
                job.run = [n, k, m, chan, design,
                           solver](rand::Rng& rng) -> Metrics {
                  const auto channel = chan.make();
                  const core::Instance instance =
                      core::make_instance(n, k, m, design, *channel, rng);
                  const solve::SolveResult result =
                      solver->solve(instance, *channel, rng);
                  const double errors = static_cast<double>(
                      core::hamming_errors(result.estimate, instance.truth));
                  return {{"success",
                           core::exact_success(result.estimate,
                                               instance.truth)
                               ? 1.0
                               : 0.0},
                          {"error", errors / static_cast<double>(n)},
                          {"overlap",
                           core::overlap(result.estimate, instance.truth)}};
                };
                jobs.push_back(std::move(job));
              }
            }
          }
        }
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const Axes axes = resolve(params);
    Json grid = aggregate_cells(results, [&](Index cell) {
      const auto [di, si, ci, ni, fi] = axes.split(cell);
      const Index n = axes.ns[ni];
      const solve::ChannelSpec& chan = axes.channels[ci];
      const double theory = chan.theory_m(n, axes.theta, axes.eps);
      Json meta = Json::object();
      meta.set("design", axes.designs[di].label())
          .set("solver", axes.solvers[si])
          .set("channel", chan.label())
          .set("n", n)
          .set("k", pooling::sublinear_k(n, axes.theta))
          .set("m", m_of(n, axes.theta, axes.m_fracs[fi], axes.eps, chan))
          .set("m_frac", axes.m_fracs[fi])
          .set("theory_m", theory);
      return meta;
    });

    // Wrap the cells in a self-describing atlas document: the explicit
    // axes make the grid renderable without re-deriving the sweep.
    Json designs = Json::array();
    for (const solve::DesignSpec& design : axes.designs) {
      designs.push_back(design.label());
    }
    Json solvers = Json::array();
    for (const std::string& solver : axes.solvers) {
      solvers.push_back(solver);
    }
    Json channels = Json::array();
    for (const solve::ChannelSpec& chan : axes.channels) {
      channels.push_back(chan.label());
    }
    Json ns = Json::array();
    for (const Index n : axes.ns) {
      ns.push_back(n);
    }
    Json m_fracs = Json::array();
    for (const double frac : axes.m_fracs) {
      m_fracs.push_back(frac);
    }
    Json axes_json = Json::object();
    axes_json.set("designs", std::move(designs))
        .set("solvers", std::move(solvers))
        .set("channels", std::move(channels))
        .set("n", std::move(ns))
        .set("m_frac", std::move(m_fracs))
        .set("theta", axes.theta)
        .set("eps", axes.eps);

    Json atlas = Json::object();
    atlas.set("schema", "npd.phase_atlas/1")
        .set("axes", std::move(axes_json))
        .set("cells", grid.at("cells"));
    return atlas;
  }

 private:
  struct Axes {
    std::vector<solve::DesignSpec> designs;
    std::vector<std::string> solvers;
    std::vector<solve::ChannelSpec> channels;
    std::vector<Index> ns;
    std::vector<double> m_fracs;
    double theta = 0.0;
    double eps = 0.0;

    [[nodiscard]] std::size_t cell_count() const {
      return designs.size() * solvers.size() * channels.size() * ns.size() *
             m_fracs.size();
    }

    /// Row-major cell index over (design, solver, channel, n, m_frac).
    [[nodiscard]] Index cell_of(std::size_t di, std::size_t si,
                                std::size_t ci, std::size_t ni,
                                std::size_t fi) const {
      return static_cast<Index>(
          (((di * solvers.size() + si) * channels.size() + ci) * ns.size() +
           ni) *
              m_fracs.size() +
          fi);
    }

    [[nodiscard]] std::array<std::size_t, 5> split(Index cell) const {
      auto rest = static_cast<std::size_t>(cell);
      const std::size_t fi = rest % m_fracs.size();
      rest /= m_fracs.size();
      const std::size_t ni = rest % ns.size();
      rest /= ns.size();
      const std::size_t ci = rest % channels.size();
      rest /= channels.size();
      const std::size_t si = rest % solvers.size();
      rest /= solvers.size();
      return {rest, si, ci, ni, fi};
    }
  };

  static Axes resolve(const ScenarioParams& params) {
    Axes axes;
    for (const std::string& spec :
         split_list(params.get_string("designs"), ';')) {
      axes.designs.push_back(solve::parse_design_spec(spec));
    }
    axes.solvers = split_list(params.get_string("solvers"), ';');
    for (const std::string& spec :
         split_list(params.get_string("channels"), ';')) {
      axes.channels.push_back(solve::parse_channel_spec(spec));
    }
    for (const std::string& frac :
         split_list(params.get_string("m_fracs"), ';')) {
      axes.m_fracs.push_back(
          parse_double_value("parameter 'm_fracs'", frac));
    }
    require_param(!axes.designs.empty(), "phase_atlas",
                  "at least one design in 'designs'");
    require_param(!axes.solvers.empty(), "phase_atlas",
                  "at least one solver in 'solvers'");
    require_param(!axes.channels.empty(), "phase_atlas",
                  "at least one channel in 'channels'");
    require_param(!axes.m_fracs.empty(), "phase_atlas",
                  "at least one fraction in 'm_fracs'");
    for (const double frac : axes.m_fracs) {
      require_param(frac > 0.0, "phase_atlas", "m_fracs > 0");
    }
    axes.theta = params.get_double("theta");
    axes.eps = params.get_double("eps");
    require_theory_params("phase_atlas", axes.theta, axes.eps);
    const auto n_lo = static_cast<Index>(params.get_int("n_lo"));
    const auto n_hi = static_cast<Index>(params.get_int("n_hi"));
    const auto n_ppd = static_cast<Index>(params.get_int("n_ppd"));
    require_param(n_lo >= 2 && n_hi >= n_lo, "phase_atlas",
                  "2 <= n_lo <= n_hi");
    require_param(n_ppd >= 1, "phase_atlas", "n_ppd >= 1");
    axes.ns = harness::log_grid(n_lo, n_hi, n_ppd);
    return axes;
  }

  static Index m_of(Index n, double theta, double m_frac, double eps,
                    const solve::ChannelSpec& spec) {
    const auto m = static_cast<Index>(
        std::ceil(m_frac * spec.theory_m(n, theta, eps)));
    return m < 1 ? 1 : m;
  }
};

// ------------------------------------------------------------------ fig4

/// Figure 4 required-queries curves for the general noisy channel with
/// symmetric error rates p = q ∈ {10⁻¹ … 10⁻⁵} — the regime-transition
/// figure.  Per (q, n) the seed streams are the single-point
/// `harness::required_queries_sweep` derivation rooted at
/// `Rng(seed + uint64(-log10(q)·131) + n)`, so rep streams derive as
/// `root.derive(rep)` (pinned by
/// `EngineAgreementTest.Fig4CellsMatchLegacySweepDerivation`).
class Fig4Scenario final : public Scenario {
 public:
  std::string name() const override { return "fig4"; }

  std::string description() const override {
    return "required queries vs n: general channel p=q in {1e-1..1e-5}, "
           "channel-aware centering (Figure 4)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"max_n", ParamSpec::Kind::Int, "10000", "largest n of the log grid"},
        {"ppd", ParamSpec::Kind::Int, "2",
         "log-grid points per decade (paper scale: 3)"},
        {"eps", ParamSpec::Kind::Double, "0.05",
         "epsilon in the interpolated theory bound"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const double theta = params.get_double("theta");
    const double eps = params.get_double("eps");
    require_theory_params("fig4", theta, eps);
    const std::vector<Index> ns = grid(params);
    const std::vector<double> qs = q_levels();

    std::vector<Job> jobs;
    jobs.reserve(qs.size() * ns.size() *
                 static_cast<std::size_t>(config.reps));
    for (std::size_t qi = 0; qi < qs.size(); ++qi) {
      const double q = qs[qi];
      for (std::size_t ni = 0; ni < ns.size(); ++ni) {
        const Index n = ns[ni];
        // Legacy derivation: one single-point sweep per (q, n), rooted
        // at seed + uint64(-log10(q)*131) + n.
        const rand::Rng root(
            config.seed +
            static_cast<std::uint64_t>(-std::log10(q) * 131.0) +
            static_cast<std::uint64_t>(n));
        const double theory = core::theory::channel_sublinear_interpolated(
            n, theta, q, q, eps);
        for (Index rep = 0; rep < config.reps; ++rep) {
          Job job;
          job.cell = static_cast<Index>(qi * ns.size() + ni);
          job.rep = rep;
          job.seed = root.derive(static_cast<std::uint64_t>(rep)).seed();
          job.cost_hint = n;
          job.run = [n, q, theta, theory](rand::Rng& rng) -> Metrics {
            const Index k = pooling::sublinear_k(n, theta);
            const auto channel = noise::make_bitflip_channel(q, q);
            // Fail-safe cap: 20x the bound.  In the q-dominated regime
            // at finite n the requirement sits a small factor above the
            // bound; runs past 20x are reported capped instead of ground
            // to the generic 1e6 limit.  Channel-aware centering (p, q
            // are known, Section II-A): the oblivious listing couples the
            // q·Γ offset with Δ* fluctuations and inflates the
            // requirement by orders of magnitude at q >= 1e-2 (abl3).
            harness::RequiredQueriesOptions options;
            options.max_queries = std::max<Index>(
                5000, static_cast<Index>(20.0 * theory));
            options.centering =
                core::Centering{.offset_per_slot = q, .gain = 1.0 - 2.0 * q};
            const auto result = harness::required_queries(
                n, k, pooling::paper_design(n), *channel, rng, options);
            return {{"m", static_cast<double>(result.m)},
                    {"reached", result.reached ? 1.0 : 0.0}};
          };
          jobs.push_back(std::move(job));
        }
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const double theta = params.get_double("theta");
    const double eps = params.get_double("eps");
    const std::vector<Index> ns = grid(params);
    const std::vector<double> qs = q_levels();
    return aggregate_cells(results, [&](Index cell) {
      const auto qi = static_cast<std::size_t>(cell) / ns.size();
      const auto ni = static_cast<std::size_t>(cell) % ns.size();
      const Index n = ns[ni];
      Json meta = Json::object();
      meta.set("n", n)
          .set("k", pooling::sublinear_k(n, theta))
          .set("q", qs[qi])
          .set("theory_interpolated",
               core::theory::channel_sublinear_interpolated(n, theta, qs[qi],
                                                            qs[qi], eps));
      return meta;
    });
  }

 private:
  static std::vector<double> q_levels() {
    return {1e-1, 1e-2, 1e-3, 1e-4, 1e-5};
  }

  static std::vector<Index> grid(const ScenarioParams& params) {
    const auto max_n = static_cast<Index>(params.get_int("max_n"));
    const auto ppd = static_cast<Index>(params.get_int("ppd"));
    require_param(max_n >= 100, "fig4",
                  "max_n >= 100 (the grid's smallest point)");
    require_param(ppd >= 1, "fig4", "ppd >= 1");
    return harness::log_grid(100, max_n, ppd);
  }
};

// ------------------------------------------------------------------ fig6

/// Figure 6 success-rate curves: exact reconstruction vs m at fixed n
/// for the Z-channel at p ∈ {0.1, 0.3, 0.5}, one series per solver
/// (default greedy vs AMP, any registered roster via `solvers`).  Per p,
/// the per-(m, rep) seed streams are the `harness::success_sweep`
/// derivation: root `Rng(seed + uint64(p·4051))`, stream
/// `root.derive(mi·100000 + rep)` — shared by every solver series, as if
/// one base seed fed the greedy and the AMP sweep (pinned by
/// `EngineAgreementTest.Fig6CellsMatchLegacySuccessSweep`).
class Fig6Scenario final : public Scenario {
 public:
  std::string name() const override { return "fig6"; }

  std::string description() const override {
    return "success rate vs m at fixed n: Z-channel p in {.1,.3,.5}, one "
           "series per solver (Figure 6)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"n", ParamSpec::Kind::Int, "1000", "number of agents"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"m_step", ParamSpec::Kind::Int, "50", "grid step in m"},
        {"m_max", ParamSpec::Kind::Int, "600", "largest m"},
        {"solvers", ParamSpec::Kind::String, "greedy;amp",
         "registered solver names, ';'-separated (one series each)"},
        design_param_spec(),
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double theta = params.get_double("theta");
    require_param(n >= 2, "fig6", "n >= 2");
    require_param(theta > 0.0 && theta < 1.0, "fig6", "theta in (0, 1)");
    const std::vector<Index> ms = m_grid(params);
    const std::vector<double> ps = z_levels();
    const Index k = pooling::sublinear_k(n, theta);
    const solve::DesignSpec design_spec =
        solve::parse_design_spec(params.get_string("design"));
    const pooling::GraphDesign design = design_spec.instantiate(n);
    for (const Index m : ms) {
      require_design_feasible("fig6", design_spec, n, m);
    }
    // Resolve every series' solver before any job is scheduled.
    std::vector<std::shared_ptr<const solve::Reconstructor>> solvers;
    const std::vector<std::string> names = solver_names(params);
    solvers.reserve(names.size());
    for (const std::string& solver_name : names) {
      solvers.push_back(solve::builtin_solvers().make(solver_name, ""));
    }

    std::vector<Job> jobs;
    jobs.reserve(ps.size() * names.size() * ms.size() *
                 static_cast<std::size_t>(config.reps));
    for (std::size_t pi = 0; pi < ps.size(); ++pi) {
      const double p = ps[pi];
      // Legacy derivation: one sweep root per p, shared by all series.
      const rand::Rng root(config.seed +
                           static_cast<std::uint64_t>(p * 4051.0));
      for (std::size_t si = 0; si < names.size(); ++si) {
        const std::shared_ptr<const solve::Reconstructor> solver =
            solvers[si];
        for (std::size_t mi = 0; mi < ms.size(); ++mi) {
          const Index m = ms[mi];
          for (Index rep = 0; rep < config.reps; ++rep) {
            Job job;
            job.cell = static_cast<Index>(
                (pi * names.size() + si) * ms.size() + mi);
            job.rep = rep;
            job.seed =
                root.derive(static_cast<std::uint64_t>(mi) * 100'000 +
                            static_cast<std::uint64_t>(rep))
                    .seed();
            job.cost_hint = n;
            job.run = [n, k, m, p, design,
                       solver](rand::Rng& rng) -> Metrics {
              const auto channel = noise::make_z_channel(p);
              const core::Instance instance =
                  core::make_instance(n, k, m, design, *channel, rng);
              const solve::SolveResult result =
                  solver->solve(instance, *channel, rng);
              return {{"success",
                       core::exact_success(result.estimate, instance.truth)
                           ? 1.0
                           : 0.0},
                      {"overlap",
                       core::overlap(result.estimate, instance.truth)}};
            };
            jobs.push_back(std::move(job));
          }
        }
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const std::vector<Index> ms = m_grid(params);
    const std::vector<double> ps = z_levels();
    const std::vector<std::string> names = solver_names(params);
    const std::string design =
        solve::parse_design_spec(params.get_string("design")).label();
    return aggregate_cells(results, [&](Index cell) {
      const auto mi = static_cast<std::size_t>(cell) % ms.size();
      const auto si =
          (static_cast<std::size_t>(cell) / ms.size()) % names.size();
      const auto pi =
          static_cast<std::size_t>(cell) / ms.size() / names.size();
      Json meta = Json::object();
      meta.set("m", ms[mi])
          .set("p", ps[pi])
          .set("design", design)
          .set("solver", names[si]);
      return meta;
    });
  }

 private:
  static std::vector<double> z_levels() { return {0.1, 0.3, 0.5}; }

  static std::vector<std::string> solver_names(
      const ScenarioParams& params) {
    std::vector<std::string> names =
        split_list(params.get_string("solvers"), ';');
    require_param(!names.empty(), "fig6",
                  "at least one solver in 'solvers'");
    return names;
  }

  static std::vector<Index> m_grid(const ScenarioParams& params) {
    const auto m_step = static_cast<Index>(params.get_int("m_step"));
    const auto m_max = static_cast<Index>(params.get_int("m_max"));
    require_param(m_step >= 1 && m_max >= m_step, "fig6",
                  "1 <= m_step <= m_max");
    return harness::linear_grid(m_step, m_max, m_step);
  }
};

// ------------------------------------------------------------- fig2, fig3

/// Figure 2 required-queries curves.  Per series (Z-channel p), the
/// per-repetition seed streams are the `harness::required_queries_sweep`
/// derivation: the sweep root is `Rng(seed + uint64(p*1000))` and rep
/// streams derive as `root.derive(point*10'000 + rep)` (pinned by
/// `EngineAgreementTest.Fig2CellsMatchLegacySweepDerivation`).
class Fig2Scenario final : public Scenario {
 public:
  std::string name() const override { return "fig2"; }

  std::string description() const override {
    return "required queries vs n: Z-channel, p in {.1,.3,.5}, theta=0.25 "
           "(Figure 2)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"max_n", ParamSpec::Kind::Int, "10000", "largest n of the log grid"},
        {"ppd", ParamSpec::Kind::Int, "2",
         "log-grid points per decade (paper scale: 3)"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const double theta = params.get_double("theta");
    require_param(theta > 0.0 && theta < 1.0, "fig2", "theta in (0, 1)");
    const std::vector<Index> ns = grid(params);
    const std::vector<double> ps = z_levels();

    std::vector<Job> jobs;
    jobs.reserve(ps.size() * ns.size() *
                 static_cast<std::size_t>(config.reps));
    for (std::size_t pi = 0; pi < ps.size(); ++pi) {
      const double p = ps[pi];
      // Legacy derivation: one sweep per p, rooted at seed + uint64(p*1000).
      const rand::Rng root(config.seed +
                           static_cast<std::uint64_t>(p * 1000.0));
      for (std::size_t ni = 0; ni < ns.size(); ++ni) {
        const Index n = ns[ni];
        for (Index rep = 0; rep < config.reps; ++rep) {
          Job job;
          job.cell = static_cast<Index>(pi * ns.size() + ni);
          job.rep = rep;
          job.seed = root.derive(static_cast<std::uint64_t>(ni) * 10'000 +
                                 static_cast<std::uint64_t>(rep))
                         .seed();
          job.cost_hint = n;
          job.run = [n, p, theta](rand::Rng& rng) -> Metrics {
            const Index k = pooling::sublinear_k(n, theta);
            const auto channel = noise::make_z_channel(p);
            const auto result = harness::required_queries(
                n, k, pooling::paper_design(n), *channel, rng);
            return {{"m", static_cast<double>(result.m)},
                    {"reached", result.reached ? 1.0 : 0.0}};
          };
          jobs.push_back(std::move(job));
        }
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const double theta = params.get_double("theta");
    const std::vector<Index> ns = grid(params);
    const std::vector<double> ps = z_levels();
    return aggregate_cells(results, [&](Index cell) {
      const auto pi = static_cast<std::size_t>(cell) / ns.size();
      const auto ni = static_cast<std::size_t>(cell) % ns.size();
      Json meta = Json::object();
      meta.set("n", ns[ni])
          .set("k", pooling::sublinear_k(ns[ni], theta))
          .set("p", ps[pi]);
      return meta;
    });
  }

 private:
  static std::vector<double> z_levels() { return {0.1, 0.3, 0.5}; }

  static std::vector<Index> grid(const ScenarioParams& params) {
    const auto max_n = static_cast<Index>(params.get_int("max_n"));
    const auto ppd = static_cast<Index>(params.get_int("ppd"));
    require_param(max_n >= 100, "fig2",
                  "max_n >= 100 (the grid's smallest point)");
    require_param(ppd >= 1, "fig2", "ppd >= 1");
    return harness::log_grid(100, max_n, ppd);
  }
};

/// Figure 3 required-queries curves: the noisy query model vs the
/// noiseless baseline.  Seed streams are the
/// `harness::required_queries_sweep` derivation with sweep roots
/// `seed + uint64(lambda*977)` (pinned by
/// `EngineAgreementTest.Fig3CellsMatchLegacySweepDerivation`).
class Fig3Scenario final : public Scenario {
 public:
  std::string name() const override { return "fig3"; }

  std::string description() const override {
    return "required queries vs n: noisy query model vs noiseless, "
           "theta=0.25 (Figure 3)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"max_n", ParamSpec::Kind::Int, "10000", "largest n of the log grid"},
        {"ppd", ParamSpec::Kind::Int, "2",
         "log-grid points per decade (paper scale: 3)"},
        {"lambda", ParamSpec::Kind::Double, "1",
         "query noise stddev of the noisy series"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const double theta = params.get_double("theta");
    require_param(theta > 0.0 && theta < 1.0, "fig3", "theta in (0, 1)");
    require_param(params.get_double("lambda") >= 0.0, "fig3",
                  "lambda >= 0");
    const std::vector<Index> ns = grid(params);
    const std::vector<double> lambdas = series(params);

    std::vector<Job> jobs;
    jobs.reserve(lambdas.size() * ns.size() *
                 static_cast<std::size_t>(config.reps));
    for (std::size_t si = 0; si < lambdas.size(); ++si) {
      const double lam = lambdas[si];
      const rand::Rng root(config.seed +
                           static_cast<std::uint64_t>(lam * 977.0));
      for (std::size_t ni = 0; ni < ns.size(); ++ni) {
        const Index n = ns[ni];
        for (Index rep = 0; rep < config.reps; ++rep) {
          Job job;
          job.cell = static_cast<Index>(si * ns.size() + ni);
          job.rep = rep;
          job.seed = root.derive(static_cast<std::uint64_t>(ni) * 10'000 +
                                 static_cast<std::uint64_t>(rep))
                         .seed();
          job.cost_hint = n;
          job.run = [n, lam, theta](rand::Rng& rng) -> Metrics {
            const Index k = pooling::sublinear_k(n, theta);
            const auto channel = lam > 0.0
                                     ? noise::make_gaussian_channel(lam)
                                     : noise::make_noiseless();
            const auto result = harness::required_queries(
                n, k, pooling::paper_design(n), *channel, rng);
            return {{"m", static_cast<double>(result.m)},
                    {"reached", result.reached ? 1.0 : 0.0}};
          };
          jobs.push_back(std::move(job));
        }
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const double theta = params.get_double("theta");
    const std::vector<Index> ns = grid(params);
    const std::vector<double> lambdas = series(params);
    return aggregate_cells(results, [&](Index cell) {
      const auto si = static_cast<std::size_t>(cell) / ns.size();
      const auto ni = static_cast<std::size_t>(cell) % ns.size();
      Json meta = Json::object();
      meta.set("n", ns[ni])
          .set("k", pooling::sublinear_k(ns[ni], theta))
          .set("lambda", lambdas[si]);
      return meta;
    });
  }

 private:
  /// Legacy series order: noiseless first, then the noisy level.
  static std::vector<double> series(const ScenarioParams& params) {
    return {0.0, params.get_double("lambda")};
  }

  static std::vector<Index> grid(const ScenarioParams& params) {
    const auto max_n = static_cast<Index>(params.get_int("max_n"));
    const auto ppd = static_cast<Index>(params.get_int("ppd"));
    require_param(max_n >= 100, "fig3",
                  "max_n >= 100 (the grid's smallest point)");
    require_param(ppd >= 1, "fig3", "ppd >= 1");
    return harness::log_grid(100, max_n, ppd);
  }
};

// ------------------------------------------------------------------ abl1

/// Ablation A1 pool-size sweep.  One cell per pool fraction Γ/n of the
/// roster {.05, .1, .25, .5, .75, .9}; per fraction the seed streams are
/// a single-point `harness::required_queries_sweep` rooted at
/// `Rng(seed + uint64(fraction·1000))`, rep streams `root.derive(rep)`
/// (pinned by `EngineAgreementTest.Abl1CellsMatchLegacySweepDerivation`).
class Abl1Scenario final : public Scenario {
 public:
  std::string name() const override { return "abl1"; }

  std::string description() const override {
    return "required queries vs pool fraction Gamma/n, Z-channel, "
           "with-replacement design (Ablation A1)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"n", ParamSpec::Kind::Int, "1000", "number of agents"},
        {"p", ParamSpec::Kind::Double, "0.1", "Z-channel flip probability"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double p = params.get_double("p");
    const double theta = params.get_double("theta");
    require_param(n >= 2, "abl1", "n >= 2");
    require_param(p >= 0.0 && p < 1.0, "abl1", "p in [0, 1)");
    require_param(theta > 0.0 && theta < 1.0, "abl1", "theta in (0, 1)");
    const Index k = pooling::sublinear_k(n, theta);
    const std::vector<double> fractions = fraction_roster();

    std::vector<Job> jobs;
    jobs.reserve(fractions.size() * static_cast<std::size_t>(config.reps));
    for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
      const double fraction = fractions[fi];
      // Legacy derivation: one single-point sweep per fraction, rooted
      // at seed + uint64(fraction * 1000).
      const rand::Rng root(config.seed +
                           static_cast<std::uint64_t>(fraction * 1000.0));
      for (Index rep = 0; rep < config.reps; ++rep) {
        Job job;
        job.cell = static_cast<Index>(fi);
        job.rep = rep;
        job.seed = root.derive(static_cast<std::uint64_t>(rep)).seed();
        job.cost_hint = n;
        job.run = [n, k, p, fraction](rand::Rng& rng) -> Metrics {
          const auto channel = noise::make_z_channel(p);
          const auto result = harness::required_queries(
              n, k,
              pooling::fractional_design(
                  n, fraction, pooling::SamplingMode::WithReplacement),
              *channel, rng);
          return {{"m", static_cast<double>(result.m)},
                  {"reached", result.reached ? 1.0 : 0.0}};
        };
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const std::vector<double> fractions = fraction_roster();
    return aggregate_cells(results, [&](Index cell) {
      const double fraction = fractions[static_cast<std::size_t>(cell)];
      Json meta = Json::object();
      meta.set("fraction", fraction)
          .set("gamma", fraction * static_cast<double>(n));
      return meta;
    });
  }

 private:
  static std::vector<double> fraction_roster() {
    return {0.05, 0.1, 0.25, 0.5, 0.75, 0.9};
  }
};

// ------------------------------------------------------------------ abl2

/// Ablation A2 sampling-discipline comparison: greedy success at equal m
/// for the paper's with-replacement design, the without-replacement and
/// Bernoulli variants, and a constant-column-weight design.  One series
/// per design; the first three series follow `harness::success_sweep`
/// with roots seed/+1/+3, the ccw series a `Rng(seed + 2 +
/// mi·131).derive(rep)` loop (pinned by
/// `EngineAgreementTest.Abl2CellsMatchLegacyDesignComparison`).
class Abl2Scenario final : public Scenario {
 public:
  std::string name() const override { return "abl2"; }

  std::string description() const override {
    return "greedy success vs m for four query designs: with/without "
           "replacement, Bernoulli, constant column weight (Ablation A2)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"n", ParamSpec::Kind::Int, "1000", "number of agents"},
        {"p", ParamSpec::Kind::Double, "0.1", "Z-channel flip probability"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"m_step", ParamSpec::Kind::Int, "50", "grid step in m"},
        {"m_max", ParamSpec::Kind::Int, "400", "largest m"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double p = params.get_double("p");
    const double theta = params.get_double("theta");
    require_param(n >= 2, "abl2", "n >= 2");
    require_param(p >= 0.0 && p < 1.0, "abl2", "p in [0, 1)");
    require_param(theta > 0.0 && theta < 1.0, "abl2", "theta in (0, 1)");
    const Index k = pooling::sublinear_k(n, theta);
    const std::vector<Index> ms = m_grid(params);

    std::vector<Job> jobs;
    jobs.reserve(4 * ms.size() * static_cast<std::size_t>(config.reps));

    // Series 0-2 follow the legacy success_sweep derivation (root per
    // series, stream root.derive(mi*100'000 + rep)); the designs are
    // fixed-size, so one QueryDesign per series is shared by its jobs.
    struct SweepSeries {
      std::uint64_t salt;
      pooling::QueryDesign design;
    };
    const std::vector<SweepSeries> series{
        {0, pooling::paper_design(n)},
        {1, pooling::fractional_design(
                n, 0.5, pooling::SamplingMode::WithoutReplacement)},
        {3, pooling::fractional_design(n, 0.5,
                                       pooling::SamplingMode::Bernoulli)},
    };
    for (std::size_t si = 0; si < series.size(); ++si) {
      const rand::Rng root(config.seed + series[si].salt);
      for (std::size_t mi = 0; mi < ms.size(); ++mi) {
        const Index m = ms[mi];
        for (Index rep = 0; rep < config.reps; ++rep) {
          Job job;
          job.cell = static_cast<Index>(si * ms.size() + mi);
          job.rep = rep;
          job.seed =
              root.derive(static_cast<std::uint64_t>(mi) * 100'000 +
                          static_cast<std::uint64_t>(rep))
                  .seed();
          job.cost_hint = n;
          job.run = [n, k, m, p,
                     design = series[si].design](rand::Rng& rng) -> Metrics {
            const auto channel = noise::make_z_channel(p);
            const core::Instance instance =
                core::make_instance(n, k, m, design, *channel, rng);
            const auto result = core::greedy_reconstruct(instance);
            return success_metrics(result.estimate, instance.truth);
          };
          jobs.push_back(std::move(job));
        }
      }
    }

    // Series 3: constant column weight — per m index the root is
    // Rng(seed + 2 + mi*131), rep streams root.derive(rep), per-agent
    // weight ~ gamma_constant()*m.
    for (std::size_t mi = 0; mi < ms.size(); ++mi) {
      const Index m = ms[mi];
      const rand::Rng root(config.seed + 2 +
                           static_cast<std::uint64_t>(mi) * 131);
      const Index weight = std::max<Index>(
          1, static_cast<Index>(core::theory::gamma_constant() *
                                static_cast<double>(m)));
      for (Index rep = 0; rep < config.reps; ++rep) {
        Job job;
        job.cell = static_cast<Index>(3 * ms.size() + mi);
        job.rep = rep;
        job.seed = root.derive(static_cast<std::uint64_t>(rep)).seed();
        job.cost_hint = n;
        job.run = [n, k, m, p, weight](rand::Rng& rng) -> Metrics {
          const auto channel = noise::make_z_channel(p);
          core::Instance instance;
          instance.truth = pooling::make_ground_truth(n, k, rng);
          instance.graph = pooling::make_constant_column_weight_graph(
              n, m, std::min(weight, m), rng);
          instance.results = core::measure_all(instance.graph,
                                               instance.truth, *channel, rng);
          const auto result = core::greedy_reconstruct(instance);
          return success_metrics(result.estimate, instance.truth);
        };
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const std::vector<Index> ms = m_grid(params);
    return aggregate_cells(results, [&](Index cell) {
      const auto mi = static_cast<std::size_t>(cell) % ms.size();
      const auto si = static_cast<std::size_t>(cell) / ms.size();
      Json meta = Json::object();
      meta.set("m", ms[mi]).set("design", design_labels()[si]);
      return meta;
    });
  }

 private:
  static Metrics success_metrics(const BitVector& estimate,
                                 const pooling::GroundTruth& truth) {
    return {{"success", core::exact_success(estimate, truth) ? 1.0 : 0.0},
            {"overlap", core::overlap(estimate, truth)}};
  }

  static std::vector<std::string> design_labels() {
    return {"with_replacement", "without_replacement", "bernoulli",
            "constant_column_weight"};
  }

  static std::vector<Index> m_grid(const ScenarioParams& params) {
    const auto m_step = static_cast<Index>(params.get_int("m_step"));
    const auto m_max = static_cast<Index>(params.get_int("m_max"));
    require_param(m_step >= 1 && m_max >= m_step, "abl2",
                  "1 <= m_step <= m_max");
    return harness::linear_grid(m_step, m_max, m_step);
  }
};

// ------------------------------------------------------------------ abl3

/// Ablation A3 score centering: raw Ψ vs the oblivious listing vs the
/// analysis' channel-aware centering, all three evaluated **on the same
/// instance** per repetition — one job per (m, rep) emitting six
/// metrics.  Per m index the root is `Rng(seed + mi·17)`, rep streams
/// `root.derive(rep)` (pinned by
/// `EngineAgreementTest.Abl3CellsMatchLegacyCenteringComparison`).
class Abl3Scenario final : public Scenario {
 public:
  std::string name() const override { return "abl3"; }

  std::string description() const override {
    return "score centering: raw Psi vs oblivious vs channel-aware on "
           "the general (p, q) channel (Ablation A3)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"n", ParamSpec::Kind::Int, "1000", "number of agents"},
        {"p", ParamSpec::Kind::Double, "0.1", "false-negative rate"},
        {"q", ParamSpec::Kind::Double, "0.05", "false-positive rate"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"m_step", ParamSpec::Kind::Int, "400", "grid step in m"},
        {"m_max", ParamSpec::Kind::Int, "4000", "largest m"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double p = params.get_double("p");
    const double q = params.get_double("q");
    const double theta = params.get_double("theta");
    require_param(n >= 2, "abl3", "n >= 2");
    require_param(p >= 0.0 && p < 1.0, "abl3", "p in [0, 1)");
    require_param(q >= 0.0 && q < 1.0, "abl3", "q in [0, 1)");
    require_param(p + q < 1.0, "abl3", "p + q < 1");
    require_param(theta > 0.0 && theta < 1.0, "abl3", "theta in (0, 1)");
    const Index k = pooling::sublinear_k(n, theta);
    const std::vector<Index> ms = m_grid(params);

    std::vector<Job> jobs;
    jobs.reserve(ms.size() * static_cast<std::size_t>(config.reps));
    for (std::size_t mi = 0; mi < ms.size(); ++mi) {
      const Index m = ms[mi];
      const rand::Rng root(config.seed +
                           static_cast<std::uint64_t>(mi) * 17);
      for (Index rep = 0; rep < config.reps; ++rep) {
        Job job;
        job.cell = static_cast<Index>(mi);
        job.rep = rep;
        job.seed = root.derive(static_cast<std::uint64_t>(rep)).seed();
        job.cost_hint = n;
        job.run = [n, k, m, p, q](rand::Rng& rng) -> Metrics {
          const noise::BitFlipChannel channel(p, q);
          const core::Centering aware_centering{.offset_per_slot = q,
                                                .gain = 1.0 - p - q};
          const core::Instance instance = core::make_instance(
              n, k, m, pooling::paper_design(n), channel, rng);
          const core::ScoreState oblivious_scores =
              core::compute_scores(instance);
          const core::ScoreState aware_scores =
              core::compute_scores(instance, aware_centering);
          const auto raw_est =
              core::select_top_k(oblivious_scores.raw_psi(), k).estimate;
          const auto oblivious_est =
              core::select_top_k(oblivious_scores.centered_scores(), k)
                  .estimate;
          const auto aware_est =
              core::select_top_k(aware_scores.centered_scores(), k).estimate;
          const auto success = [&](const BitVector& est) {
            return core::exact_success(est, instance.truth) ? 1.0 : 0.0;
          };
          const auto ovl = [&](const BitVector& est) {
            return core::overlap(est, instance.truth);
          };
          return {{"raw_success", success(raw_est)},
                  {"oblivious_success", success(oblivious_est)},
                  {"aware_success", success(aware_est)},
                  {"raw_overlap", ovl(raw_est)},
                  {"oblivious_overlap", ovl(oblivious_est)},
                  {"aware_overlap", ovl(aware_est)}};
        };
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const std::vector<Index> ms = m_grid(params);
    return aggregate_cells(results, [&](Index cell) {
      Json meta = Json::object();
      meta.set("m", ms[static_cast<std::size_t>(cell)]);
      return meta;
    });
  }

 private:
  static std::vector<Index> m_grid(const ScenarioParams& params) {
    const auto m_step = static_cast<Index>(params.get_int("m_step"));
    const auto m_max = static_cast<Index>(params.get_int("m_max"));
    require_param(m_step >= 1 && m_max >= m_step, "abl3",
                  "1 <= m_step <= m_max");
    return harness::linear_grid(m_step, m_max, m_step);
  }
};

// ------------------------------------------------------------------ abl4

/// Ablation A4 two-stage local correction: greedy vs two-stage vs AMP on
/// one Z-channel success curve.  Every series shares the **same** sweep
/// root `Rng(seed)`, streams `root.derive(mi·100000 + rep)` — three
/// `harness::success_sweep`s off one base seed (pinned by
/// `EngineAgreementTest.Abl4CellsMatchLegacySuccessSweeps`); the
/// algorithms come from the solver registry, pinned bit-identical to the
/// legacy free functions.
class Abl4Scenario final : public Scenario {
 public:
  std::string name() const override { return "abl4"; }

  std::string description() const override {
    return "greedy vs two-stage local correction vs AMP: success vs m on "
           "the Z-channel (Ablation A4)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"n", ParamSpec::Kind::Int, "1000", "number of agents"},
        {"p", ParamSpec::Kind::Double, "0.3", "Z-channel flip probability"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"m_step", ParamSpec::Kind::Int, "50", "grid step in m"},
        {"m_max", ParamSpec::Kind::Int, "500", "largest m"},
        {"solvers", ParamSpec::Kind::String, "greedy;two_stage;amp",
         "registered solver names, ';'-separated (one series each)"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double p = params.get_double("p");
    const double theta = params.get_double("theta");
    require_param(n >= 2, "abl4", "n >= 2");
    require_param(p >= 0.0 && p < 1.0, "abl4", "p in [0, 1)");
    require_param(theta > 0.0 && theta < 1.0, "abl4", "theta in (0, 1)");
    const Index k = pooling::sublinear_k(n, theta);
    const pooling::QueryDesign design = pooling::paper_design(n);
    const std::vector<Index> ms = m_grid(params);
    const std::vector<std::string> names = solver_names(params);
    std::vector<std::shared_ptr<const solve::Reconstructor>> solvers;
    solvers.reserve(names.size());
    for (const std::string& solver_name : names) {
      solvers.push_back(solve::builtin_solvers().make(solver_name, ""));
    }
    // Legacy derivation: one shared root for every series.
    const rand::Rng root(config.seed);

    std::vector<Job> jobs;
    jobs.reserve(names.size() * ms.size() *
                 static_cast<std::size_t>(config.reps));
    for (std::size_t si = 0; si < names.size(); ++si) {
      const std::shared_ptr<const solve::Reconstructor> solver = solvers[si];
      for (std::size_t mi = 0; mi < ms.size(); ++mi) {
        const Index m = ms[mi];
        for (Index rep = 0; rep < config.reps; ++rep) {
          Job job;
          job.cell = static_cast<Index>(si * ms.size() + mi);
          job.rep = rep;
          job.seed =
              root.derive(static_cast<std::uint64_t>(mi) * 100'000 +
                          static_cast<std::uint64_t>(rep))
                  .seed();
          job.cost_hint = n;
          job.run = [n, k, m, p, design, solver](rand::Rng& rng) -> Metrics {
            const auto channel = noise::make_z_channel(p);
            const core::Instance instance =
                core::make_instance(n, k, m, design, *channel, rng);
            const solve::SolveResult result =
                solver->solve(instance, *channel, rng);
            return {{"success",
                     core::exact_success(result.estimate, instance.truth)
                         ? 1.0
                         : 0.0},
                    {"overlap",
                     core::overlap(result.estimate, instance.truth)}};
          };
          jobs.push_back(std::move(job));
        }
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const std::vector<Index> ms = m_grid(params);
    const std::vector<std::string> names = solver_names(params);
    return aggregate_cells(results, [&](Index cell) {
      const auto mi = static_cast<std::size_t>(cell) % ms.size();
      const auto si = static_cast<std::size_t>(cell) / ms.size();
      Json meta = Json::object();
      meta.set("m", ms[mi]).set("solver", names[si]);
      return meta;
    });
  }

 private:
  static std::vector<std::string> solver_names(
      const ScenarioParams& params) {
    std::vector<std::string> names =
        split_list(params.get_string("solvers"), ';');
    require_param(!names.empty(), "abl4",
                  "at least one solver in 'solvers'");
    return names;
  }

  static std::vector<Index> m_grid(const ScenarioParams& params) {
    const auto m_step = static_cast<Index>(params.get_int("m_step"));
    const auto m_max = static_cast<Index>(params.get_int("m_max"));
    require_param(m_step >= 1 && m_max >= m_step, "abl4",
                  "1 <= m_step <= m_max");
    return harness::linear_grid(m_step, m_max, m_step);
  }
};

// ------------------------------------------------------------------ abl5

/// Ablation A5, the Theorem 2 phase transition: greedy success at fixed
/// m (twice the noiseless bound) across a λ roster — absolute levels,
/// multiples of the critical scale √(m/ln n), and the failure regime
/// λ² ∈ {m, 4m}.  Per λ the streams are a single-point
/// `harness::success_sweep` rooted at `Rng(seed + uint64(λ·97))`, rep
/// streams `root.derive(rep)` (pinned by
/// `EngineAgreementTest.Abl5CellsMatchLegacySweepDerivation`).
class Abl5Scenario final : public Scenario {
 public:
  std::string name() const override { return "abl5"; }

  std::string description() const override {
    return "Theorem 2 phase transition: greedy success vs query-noise "
           "level lambda at fixed m (Ablation A5)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"n", ParamSpec::Kind::Int, "1000", "number of agents"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double theta = params.get_double("theta");
    require_param(n >= 2, "abl5", "n >= 2");
    require_param(theta > 0.0 && theta < 1.0, "abl5", "theta in (0, 1)");
    const Index k = pooling::sublinear_k(n, theta);
    const Index m = fixed_m(n, theta);
    const std::vector<double> lambdas = lambda_roster(n, theta);

    std::vector<Job> jobs;
    jobs.reserve(lambdas.size() * static_cast<std::size_t>(config.reps));
    for (std::size_t li = 0; li < lambdas.size(); ++li) {
      const double lambda = lambdas[li];
      const rand::Rng root(config.seed +
                           static_cast<std::uint64_t>(lambda * 97.0));
      for (Index rep = 0; rep < config.reps; ++rep) {
        Job job;
        job.cell = static_cast<Index>(li);
        job.rep = rep;
        job.seed = root.derive(static_cast<std::uint64_t>(rep)).seed();
        job.cost_hint = n;
        job.run = [n, k, m, lambda](rand::Rng& rng) -> Metrics {
          const auto channel = lambda > 0.0
                                   ? noise::make_gaussian_channel(lambda)
                                   : noise::make_noiseless();
          const core::Instance instance = core::make_instance(
              n, k, m, pooling::paper_design(n), *channel, rng);
          const auto result = core::greedy_reconstruct(instance);
          return {{"success",
                   core::exact_success(result.estimate, instance.truth)
                       ? 1.0
                       : 0.0},
                  {"overlap",
                   core::overlap(result.estimate, instance.truth)}};
        };
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double theta = params.get_double("theta");
    const Index m = fixed_m(n, theta);
    const std::vector<double> lambdas = lambda_roster(n, theta);
    return aggregate_cells(results, [&](Index cell) {
      const double lambda = lambdas[static_cast<std::size_t>(cell)];
      Json meta = Json::object();
      meta.set("lambda", lambda)
          .set("m", m)
          .set("ratio", lambda > 0.0
                            ? core::theory::noisy_query_noise_ratio(
                                  lambda, static_cast<double>(m), n)
                            : 0.0);
      return meta;
    });
  }

 private:
  /// Twice the noiseless Theorem 2 bound — comfortably achievable at
  /// λ = 0, so the collapse is attributable to noise alone (eps = 0.1).
  static Index fixed_m(Index n, double theta) {
    return static_cast<Index>(
        std::ceil(2.0 * core::theory::noisy_query_sublinear(n, theta, 0.1)));
  }

  static std::vector<double> lambda_roster(Index n, double theta) {
    const Index m = fixed_m(n, theta);
    const double critical = std::sqrt(static_cast<double>(m) /
                                      std::log(static_cast<double>(n)));
    std::vector<double> lambdas{0.0, 1.0, 2.0, 4.0, 8.0};
    lambdas.push_back(0.25 * critical);
    lambdas.push_back(0.5 * critical);
    lambdas.push_back(critical);
    lambdas.push_back(2.0 * critical);
    lambdas.push_back(std::sqrt(static_cast<double>(m)));        // λ² = m
    lambdas.push_back(2.0 * std::sqrt(static_cast<double>(m)));  // λ² = 4m
    return lambdas;
  }
};

// ------------------------------------------------------------------ abl6

/// Ablation A6 AMP configuration: the Bayes-optimal Bernoulli denoiser
/// vs the soft-threshold (LASSO) denoiser vs damped Bayes iterations,
/// all three on the **same instance** per repetition (the only
/// randomness is instance creation).  Per m index the root is
/// `Rng(seed + mi·71)`, rep streams `root.derive(rep)` (pinned by
/// `EngineAgreementTest.Abl6CellsMatchLegacyDenoiserVariants`).  The
/// state-evolution fixed point of the Bayes denoiser is deterministic
/// per cell and lands in the cell metadata as `se_tau2`.
class Abl6Scenario final : public Scenario {
 public:
  std::string name() const override { return "abl6"; }

  std::string description() const override {
    return "AMP configuration: Bayes vs soft-threshold denoiser, "
           "undamped vs damped, with the SE fixed point (Ablation A6)";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"n", ParamSpec::Kind::Int, "1000", "number of agents"},
        {"p", ParamSpec::Kind::Double, "0.1", "Z-channel flip probability"},
        {"theta", ParamSpec::Kind::Double, "0.25",
         "sublinear regime exponent (k = n^theta)"},
        {"m_step", ParamSpec::Kind::Int, "50", "grid step in m"},
        {"m_max", ParamSpec::Kind::Int, "400", "largest m"},
    };
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double p = params.get_double("p");
    const double theta = params.get_double("theta");
    require_param(n >= 2, "abl6", "n >= 2");
    require_param(p >= 0.0 && p < 1.0, "abl6", "p in [0, 1)");
    require_param(theta > 0.0 && theta < 1.0, "abl6", "theta in (0, 1)");
    const Index k = pooling::sublinear_k(n, theta);
    const double pi = static_cast<double>(k) / static_cast<double>(n);
    const std::vector<Index> ms = m_grid(params);

    std::vector<Job> jobs;
    jobs.reserve(ms.size() * static_cast<std::size_t>(config.reps));
    for (std::size_t mi = 0; mi < ms.size(); ++mi) {
      const Index m = ms[mi];
      const rand::Rng root(config.seed +
                           static_cast<std::uint64_t>(mi) * 71);
      for (Index rep = 0; rep < config.reps; ++rep) {
        Job job;
        job.cell = static_cast<Index>(mi);
        job.rep = rep;
        job.seed = root.derive(static_cast<std::uint64_t>(rep)).seed();
        // Three AMP solves per job.
        job.cost_hint = 4 * n;
        job.run = [n, k, m, p, pi](rand::Rng& rng) -> Metrics {
          const noise::BitFlipChannel channel(p, 0.0);
          const auto lin = channel.linearization(n, k, n / 2);
          const core::Instance instance = core::make_instance(
              n, k, m, pooling::paper_design(n), channel, rng);
          const amp::AmpProblem problem = amp::standardize(instance, lin);
          const amp::BayesBernoulliDenoiser bayes(pi);
          const amp::SoftThresholdDenoiser soft(1.5);
          const auto variant = [&](const amp::Denoiser& denoiser,
                                   double damping) {
            amp::AmpOptions options;
            options.damping = damping;
            return amp::run_amp(problem, denoiser, options);
          };
          const auto bayes_result = variant(bayes, 1.0);
          const auto soft_result = variant(soft, 1.0);
          const auto damped_result = variant(bayes, 0.7);
          const auto success = [&](const amp::AmpResult& result) {
            return core::exact_success(result.estimate, instance.truth)
                       ? 1.0
                       : 0.0;
          };
          const auto ovl = [&](const amp::AmpResult& result) {
            return core::overlap(result.estimate, instance.truth);
          };
          return {{"bayes_success", success(bayes_result)},
                  {"soft_success", success(soft_result)},
                  {"bayes_damped_success", success(damped_result)},
                  {"bayes_overlap", ovl(bayes_result)},
                  {"soft_overlap", ovl(soft_result)},
                  {"bayes_damped_overlap", ovl(damped_result)}};
        };
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const auto n = static_cast<Index>(params.get_int("n"));
    const double p = params.get_double("p");
    const double theta = params.get_double("theta");
    const Index k = pooling::sublinear_k(n, theta);
    const double pi = static_cast<double>(k) / static_cast<double>(n);
    const std::vector<Index> ms = m_grid(params);
    return aggregate_cells(results, [&](Index cell) {
      const Index m = ms[static_cast<std::size_t>(cell)];
      Json meta = Json::object();
      meta.set("m", m).set("se_tau2", se_fixed_point(n, k, m, p, pi));
      return meta;
    });
  }

 private:
  /// The state-evolution fixed point for the Bayes
  /// denoiser at (n, k, m, p) — a deterministic function, recomputed at
  /// aggregation time rather than carried as a metric.
  static double se_fixed_point(Index n, Index k, Index m, double p,
                               double pi) {
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

  static std::vector<Index> m_grid(const ScenarioParams& params) {
    const auto m_step = static_cast<Index>(params.get_int("m_step"));
    const auto m_max = static_cast<Index>(params.get_int("m_max"));
    require_param(m_step >= 1 && m_max >= m_step, "abl6",
                  "1 <= m_step <= m_max");
    return harness::linear_grid(m_step, m_max, m_step);
  }
};

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.add(std::make_unique<Fig5Scenario>());
  registry.add(std::make_unique<Abl1Scenario>());
  registry.add(std::make_unique<Abl2Scenario>());
  registry.add(std::make_unique<Abl3Scenario>());
  registry.add(std::make_unique<Abl4Scenario>());
  registry.add(std::make_unique<Abl5Scenario>());
  registry.add(std::make_unique<Abl6Scenario>());
  registry.add(std::make_unique<Abl7Scenario>());
  registry.add(std::make_unique<Fig2Scenario>());
  registry.add(std::make_unique<Fig3Scenario>());
  registry.add(std::make_unique<Fig4Scenario>());
  registry.add(std::make_unique<Fig6Scenario>());
  registry.add(std::make_unique<SolverSweepScenario>());
  registry.add(std::make_unique<PhaseAtlasScenario>());
  // The generic fixed-m scenario plus the historical per-algorithm names
  // (deprecated aliases: same class, different `solver` default and seed
  // stream key; prefer `fixed_m` with `solver=<name>`).
  registry.add(std::make_unique<FixedMScenario>("fixed_m", "greedy"));
  registry.add(std::make_unique<FixedMScenario>("fixed_m_greedy", "greedy"));
  registry.add(std::make_unique<FixedMScenario>("fixed_m_amp", "amp"));
  registry.add(
      std::make_unique<FixedMScenario>("fixed_m_two_stage", "two_stage"));
}

}  // namespace npd::engine
