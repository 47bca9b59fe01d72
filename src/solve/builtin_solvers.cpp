// The built-in solver roster: thin adapters that expose every
// reconstruction algorithm of the repo through the unified
// `Reconstructor` API.  The legacy free functions stay the reference
// implementations — each adapter calls exactly one of them, and
// tests/solve_test.cpp pins the adapters bit-identical to the direct
// calls.
//
// Roster (diagnostics keys in parentheses):
//   greedy                Algorithm 1, channel-oblivious centering
//                         (separation_gap)
//   greedy_channel_aware  Algorithm 1 with the analysis' channel-aware
//                         centering — matters when q > 0 (separation_gap)
//   two_stage             greedy + leave-one-out local correction
//                         (rounds_used, stage2_flips)
//   amp                   Bayes-optimal AMP on the standardized problem
//                         (tau2_final)
//   amp_se                amp + the state-evolution prediction of its
//                         noise trajectory (tau2_final, se_tau2_final,
//                         se_iterations, se_converged)
//   dist_greedy           faithful distributed Algorithm 1
//                         (sorting_depth)
//   dist_amp              faithful distributed AMP, iteration budget
//                         taken from a centralized reference run
//                         (amp_rounds, amp_messages, topk_rounds,
//                         topk_messages)
//   dist_topk             Phase I scores + the distributed top-k
//                         selection protocol (sorting_depth)

#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "amp/amp.hpp"
#include "amp/denoiser.hpp"
#include "amp/preprocess.hpp"
#include "amp/state_evolution.hpp"
#include "core/greedy.hpp"
#include "core/scores.hpp"
#include "core/two_stage.hpp"
#include "netsim/distributed_amp.hpp"
#include "netsim/distributed_greedy.hpp"
#include "netsim/distributed_topk.hpp"
#include "solve/reconstructor.hpp"
#include "util/assert.hpp"

namespace npd::solve {

namespace {

/// The reference pool size for channel linearizations: the mean pool
/// size over all queries, rounded.  For the fixed-size designs of this
/// repo (paper design Γ = n/2, with or without replacement) every query
/// has exactly Γ slots, so the mean is *exactly* the `design.gamma` the
/// legacy call sites pass — the bit-identity pins rely on that.  For
/// variable-size designs (Bernoulli) it is the natural Γ estimate
/// (single queries fluctuate around the design Γ).
Index gamma_ref(const core::Instance& instance) {
  NPD_CHECK_MSG(instance.m() >= 1, "solver needs at least one query");
  return static_cast<Index>(
      std::llround(static_cast<double>(instance.graph.num_edges()) /
                   static_cast<double>(instance.m())));
}

/// Reject out-of-range option values at construction time, so a bad
/// `solver_params` surfaces as a clean `std::invalid_argument` before
/// any job is scheduled — not as a mid-batch contract violation on a
/// worker thread.
void require(bool condition, const std::string& message) {
  if (!condition) {
    throw std::invalid_argument(message);
  }
}

amp::AmpOptions amp_options_from(const ParamSet& params) {
  amp::AmpOptions options;
  options.max_iterations =
      static_cast<Index>(params.get_int("max_iterations"));
  options.convergence_tol = params.get_double("convergence_tol");
  options.damping = params.get_double("damping");
  require(options.max_iterations >= 1, "max_iterations must be >= 1");
  require(options.convergence_tol >= 0.0,
          "convergence_tol must be nonnegative");
  require(options.damping > 0.0 && options.damping <= 1.0,
          "damping must lie in (0, 1]");
  return options;
}

std::vector<ParamSpec> amp_param_specs() {
  return {
      {"max_iterations", ParamSpec::Kind::Int, "50",
       "AMP iteration budget"},
      {"convergence_tol", ParamSpec::Kind::Double, "1e-10",
       "stop when the mean-squared update drops below this"},
      {"damping", ParamSpec::Kind::Double, "1",
       "damping factor in (0, 1]; 1 = undamped"},
  };
}

/// Factory backed by a make-function (the adapters carry no state beyond
/// their resolved options, so a full class per factory would be noise).
class FnSolverFactory final : public SolverFactory {
 public:
  using Maker =
      std::function<std::unique_ptr<Reconstructor>(const ParamSet&)>;

  FnSolverFactory(std::string name, std::string description,
                  std::vector<ParamSpec> specs, Maker maker)
      : name_(std::move(name)),
        description_(std::move(description)),
        specs_(std::move(specs)),
        maker_(std::move(maker)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  std::vector<ParamSpec> params() const override { return specs_; }

  std::unique_ptr<Reconstructor> make(const ParamSet& params) const override {
    return maker_(params);
  }

 private:
  std::string name_;
  std::string description_;
  std::vector<ParamSpec> specs_;
  Maker maker_;
};

// ----------------------------------------------------------- greedy family

/// Algorithm 1 through `core::greedy_reconstruct`; `channel_aware`
/// selects the analysis' centering (Equation 3) via the channel's
/// linearization.
class GreedySolver final : public Reconstructor {
 public:
  GreedySolver(std::string name, bool channel_aware)
      : name_(std::move(name)), channel_aware_(channel_aware) {}

  std::string name() const override { return name_; }

  SolveResult solve(const core::Instance& instance,
                    const noise::NoiseChannel& channel,
                    rand::Rng& rng) const override {
    (void)rng;  // deterministic given the instance
    core::Centering centering;
    if (channel_aware_) {
      const Index gamma = gamma_ref(instance);
      centering = core::centering_from(
          channel.linearization(instance.n(), instance.k(), gamma), gamma);
    }
    const core::ScoreState state = core::compute_scores(instance, centering);
    core::GreedyResult greedy = core::greedy_from_scores(state);

    SolveResult result;
    result.estimate = std::move(greedy.estimate);
    result.scores = state.centered_scores();
    result.diagnostics.set("separation_gap", greedy.separation_gap);
    return result;
  }

 private:
  std::string name_;
  bool channel_aware_;
};

// --------------------------------------------------------------- two_stage

class TwoStageSolver final : public Reconstructor {
 public:
  explicit TwoStageSolver(core::TwoStageOptions options)
      : options_(options) {}

  std::string name() const override { return "two_stage"; }

  SolveResult solve(const core::Instance& instance,
                    const noise::NoiseChannel& channel,
                    rand::Rng& rng) const override {
    (void)rng;
    const noise::Linearization lin = channel.linearization(
        instance.n(), instance.k(), gamma_ref(instance));
    core::TwoStageResult two_stage =
        core::two_stage_reconstruct(instance, lin, options_);

    Index stage2_flips = 0;
    for (std::size_t i = 0; i < two_stage.estimate.size(); ++i) {
      if (two_stage.estimate[i] != two_stage.greedy_estimate[i]) {
        ++stage2_flips;
      }
    }

    SolveResult result;
    result.estimate = std::move(two_stage.estimate);
    result.iterations = two_stage.rounds_used;
    result.converged = two_stage.converged;
    result.diagnostics.set("rounds_used", two_stage.rounds_used)
        .set("stage2_flips", stage2_flips);
    return result;
  }

 private:
  core::TwoStageOptions options_;
};

// --------------------------------------------------------------- AMP family

class AmpSolver final : public Reconstructor {
 public:
  AmpSolver(std::string name, amp::AmpOptions options, bool with_se,
            amp::StateEvolutionParams se_params)
      : name_(std::move(name)),
        options_(options),
        with_se_(with_se),
        se_params_(se_params) {}

  std::string name() const override { return name_; }

  SolveResult solve(const core::Instance& instance,
                    const noise::NoiseChannel& channel,
                    rand::Rng& rng) const override {
    (void)rng;
    const noise::Linearization lin = channel.linearization(
        instance.n(), instance.k(), gamma_ref(instance));
    // One standardized problem serves AMP and, for amp_se, the
    // state-evolution companion.
    const amp::AmpProblem problem = amp::standardize(instance, lin);
    const amp::BayesBernoulliDenoiser denoiser(problem.pi);
    amp::AmpResult amp_result = amp::run_amp(problem, denoiser, options_);

    SolveResult result;
    result.estimate = std::move(amp_result.estimate);
    result.scores = std::move(amp_result.x);
    result.iterations = amp_result.iterations;
    result.converged = amp_result.converged;
    result.diagnostics.set("tau2_final", amp_result.tau2_history.back());

    if (with_se_) {
      // Companion state-evolution prediction on the same standardized
      // problem (scalar recursion; estimates are untouched).
      amp::StateEvolutionParams se = se_params_;
      se.pi = problem.pi;
      se.n_over_m = static_cast<double>(problem.n) /
                    static_cast<double>(problem.m);
      se.noise_var = problem.effective_noise_var;
      const amp::StateEvolutionTrace trace =
          amp::run_state_evolution(se, denoiser);
      result.diagnostics.set("se_tau2_final", trace.tau2.back())
          .set("se_iterations",
               static_cast<std::int64_t>(trace.tau2.size()) - 1)
          .set("se_converged", trace.converged);
    }
    return result;
  }

 private:
  std::string name_;
  amp::AmpOptions options_;
  bool with_se_;
  amp::StateEvolutionParams se_params_;
};

// -------------------------------------------------------- distributed runs

class DistGreedySolver final : public Reconstructor {
 public:
  std::string name() const override { return "dist_greedy"; }

  SolveResult solve(const core::Instance& instance,
                    const noise::NoiseChannel& channel,
                    rand::Rng& rng) const override {
    (void)channel;
    (void)rng;
    netsim::DistributedGreedyResult dist =
        netsim::run_distributed_greedy(instance);

    SolveResult result;
    result.estimate = std::move(dist.estimate);
    result.net = dist.stats;
    result.diagnostics.set("sorting_depth", dist.sorting_depth);
    return result;
  }
};

class DistAmpSolver final : public Reconstructor {
 public:
  explicit DistAmpSolver(amp::AmpOptions options) : options_(options) {}

  std::string name() const override { return "dist_amp"; }

  SolveResult solve(const core::Instance& instance,
                    const noise::NoiseChannel& channel,
                    rand::Rng& rng) const override {
    (void)rng;
    const noise::Linearization lin = channel.linearization(
        instance.n(), instance.k(), gamma_ref(instance));
    const amp::AmpProblem problem = amp::standardize(instance, lin);
    const amp::BayesBernoulliDenoiser denoiser(problem.pi);
    // The distributed protocol runs a fixed budget (distributed
    // convergence detection would cost an aggregation tree per
    // iteration); take it from a centralized reference run, as the
    // abl7 scenario does.
    const amp::AmpResult centralized =
        amp::run_amp(problem, denoiser, options_);
    netsim::DistributedAmpResult dist = netsim::run_distributed_amp(
        instance, problem, denoiser, centralized.iterations);

    SolveResult result;
    result.estimate = std::move(dist.estimate);
    result.scores = std::move(dist.x);
    result.iterations = dist.iterations;
    result.converged = centralized.converged;
    result.net = netsim::NetStats{
        dist.iteration_stats.rounds + dist.topk_stats.rounds,
        dist.iteration_stats.messages + dist.topk_stats.messages,
        dist.iteration_stats.bytes + dist.topk_stats.bytes};
    result.diagnostics.set("amp_rounds", dist.iteration_stats.rounds)
        .set("amp_messages", dist.iteration_stats.messages)
        .set("topk_rounds", dist.topk_stats.rounds)
        .set("topk_messages", dist.topk_stats.messages);
    return result;
  }

 private:
  amp::AmpOptions options_;
};

class DistTopKSolver final : public Reconstructor {
 public:
  std::string name() const override { return "dist_topk"; }

  SolveResult solve(const core::Instance& instance,
                    const noise::NoiseChannel& channel,
                    rand::Rng& rng) const override {
    (void)channel;
    (void)rng;
    // Phase I locally (scores are the channel-oblivious Algorithm 1
    // statistic), then the reusable distributed top-k protocol for the
    // selection — the same tie-break as `core::select_top_k`.
    const core::ScoreState state = core::compute_scores(instance);
    const std::vector<double> scores = state.centered_scores();
    netsim::DistributedTopKResult dist =
        netsim::run_distributed_topk(scores, instance.k());

    SolveResult result;
    result.estimate = std::move(dist.estimate);
    result.scores = scores;
    result.net = dist.stats;
    result.diagnostics.set("sorting_depth", dist.sorting_depth);
    return result;
  }
};

}  // namespace

void register_builtin_solvers(SolverRegistry& registry) {
  registry.add(std::make_unique<FnSolverFactory>(
      "greedy",
      "Algorithm 1 (Maximum Neighborhood), channel-oblivious centering",
      std::vector<ParamSpec>{}, [](const ParamSet&) {
        return std::make_unique<GreedySolver>("greedy", false);
      }));

  registry.add(std::make_unique<FnSolverFactory>(
      "greedy_channel_aware",
      "Algorithm 1 with the analysis' channel-aware centering "
      "(Equation 3; matters when q > 0)",
      std::vector<ParamSpec>{}, [](const ParamSet&) {
        return std::make_unique<GreedySolver>("greedy_channel_aware", true);
      }));

  registry.add(std::make_unique<FnSolverFactory>(
      "two_stage",
      "greedy + leave-one-out local correction (the conclusion's "
      "two-step question)",
      std::vector<ParamSpec>{
          {"max_rounds", ParamSpec::Kind::Int, "20",
           "maximum stage-2 refinement rounds"},
          {"stop_at_fixed_point", ParamSpec::Kind::Int, "1",
           "stop as soon as an iteration leaves the estimate unchanged "
           "(0/1)"},
      },
      [](const ParamSet& params) {
        core::TwoStageOptions options;
        options.max_rounds =
            static_cast<Index>(params.get_int("max_rounds"));
        options.stop_at_fixed_point =
            params.get_int("stop_at_fixed_point") != 0;
        require(options.max_rounds >= 0, "max_rounds must be nonnegative");
        return std::make_unique<TwoStageSolver>(options);
      }));

  registry.add(std::make_unique<FnSolverFactory>(
      "amp", "Bayes-optimal AMP on the standardized problem (Section III)",
      amp_param_specs(), [](const ParamSet& params) {
        return std::make_unique<AmpSolver>("amp", amp_options_from(params),
                                           false,
                                           amp::StateEvolutionParams{});
      }));

  registry.add(std::make_unique<FnSolverFactory>(
      "amp_se",
      "AMP plus its state-evolution noise prediction in the diagnostics",
      [] {
        std::vector<ParamSpec> specs = amp_param_specs();
        specs.push_back({"se_max_iterations", ParamSpec::Kind::Int, "100",
                         "state-evolution recursion budget"});
        specs.push_back({"se_tol", ParamSpec::Kind::Double, "1e-12",
                         "state-evolution fixed-point tolerance"});
        return specs;
      }(),
      [](const ParamSet& params) {
        amp::StateEvolutionParams se;
        se.max_iterations =
            static_cast<Index>(params.get_int("se_max_iterations"));
        se.tol = params.get_double("se_tol");
        require(se.max_iterations >= 1, "se_max_iterations must be >= 1");
        require(se.tol > 0.0, "se_tol must be positive");
        return std::make_unique<AmpSolver>(
            "amp_se", amp_options_from(params), true, se);
      }));

  registry.add(std::make_unique<FnSolverFactory>(
      "dist_greedy",
      "faithful distributed Algorithm 1 (broadcast + sorting network)",
      std::vector<ParamSpec>{}, [](const ParamSet&) {
        return std::make_unique<DistGreedySolver>();
      }));

  registry.add(std::make_unique<FnSolverFactory>(
      "dist_amp",
      "faithful distributed AMP; iteration budget from a centralized "
      "reference run",
      amp_param_specs(), [](const ParamSet& params) {
        return std::make_unique<DistAmpSolver>(amp_options_from(params));
      }));

  registry.add(std::make_unique<FnSolverFactory>(
      "dist_topk",
      "local Phase I scores + the distributed top-k selection protocol",
      std::vector<ParamSpec>{}, [](const ParamSet&) {
        return std::make_unique<DistTopKSolver>();
      }));
}

}  // namespace npd::solve
