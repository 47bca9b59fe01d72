// Scenario: a head-to-head of Algorithm 1 and AMP on a single instance,
// with the full AMP iteration trace — the microscope version of the
// paper's Figure 6 comparison and of the conclusion's discussion ("the
// information that AMP can use after exactly one update step is the same
// as in Algorithm 1").

#include <cmath>
#include <cstdio>

#include "amp/amp.hpp"
#include "amp/state_evolution.hpp"
#include "core/evaluation.hpp"
#include "core/greedy.hpp"
#include "core/instance.hpp"
#include "core/theory.hpp"
#include "noise/channel.hpp"
#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace npd;

  CliParser cli("amp_vs_greedy",
                "Head-to-head of Algorithm 1 and AMP on single instances.");
  const long long& n_arg = cli.add_int("n", 1000, "number of agents");
  const long long& reps = cli.add_int("reps", 1, "independent instances");
  const long long& seed = cli.add_int("seed", 424242, "base RNG seed");
  cli.parse(argc, argv);

  std::printf("=== AMP vs greedy ===\n\n");

  if (n_arg < 2) {
    std::fprintf(stderr, "error: --n must be at least 2 (got %lld)\n", n_arg);
    return 1;
  }
  if (reps < 1) {
    std::printf("nothing to do: --reps %lld\n",
                static_cast<long long>(reps));
    return 0;
  }

  const auto n = static_cast<Index>(n_arg);
  const Index k = pooling::sublinear_k(n, 0.25);
  const double p = 0.1;
  const noise::BitFlipChannel channel(p, 0.0);

  // Choose m inside the window where AMP succeeds but greedy struggles:
  // about half the greedy threshold (cf. Figure 6).
  const double greedy_bound =
      core::theory::z_channel_sublinear(n, 0.25, p, 0.1);
  const auto m = static_cast<Index>(0.55 * greedy_bound);
  std::printf("n = %lld, k = %lld, Z-channel p = %.1f, m = %lld "
              "(greedy bound ~ %.0f), reps = %lld\n\n",
              static_cast<long long>(n), static_cast<long long>(k), p,
              static_cast<long long>(m), std::ceil(greedy_bound),
              static_cast<long long>(reps));

  // The state-evolution comparison below needs only the last problem's
  // scalars; the problem itself borrows its instance's graph.
  amp::AmpResult amp_result;
  amp::StateEvolutionParams se_params;
  se_params.n_over_m = static_cast<double>(n) / static_cast<double>(m);
  for (long long rep = 0; rep < reps; ++rep) {
    rand::Rng rng(static_cast<std::uint64_t>(seed + rep));
    const core::Instance instance =
        core::make_instance(n, k, m, pooling::paper_design(n), channel, rng);

    // --- greedy ---
    const auto greedy = core::greedy_reconstruct(instance);
    std::printf("rep %lld greedy : exact = %s, overlap = %.2f\n",
                rep + 1,
                core::exact_success(greedy.estimate, instance.truth) ? "yes"
                                                                     : "no",
                core::overlap(greedy.estimate, instance.truth));

    // --- AMP ---
    const auto lin = channel.linearization(n, k, n / 2);
    const amp::AmpProblem problem = amp::standardize(instance, lin);
    const amp::BayesBernoulliDenoiser denoiser(problem.pi);
    amp_result = amp::run_amp(problem, denoiser);
    se_params.pi = problem.pi;
    se_params.noise_var = problem.effective_noise_var;
    std::printf("rep %lld amp    : exact = %s, overlap = %.2f, "
                "iterations = %lld\n",
                rep + 1,
                core::exact_success(amp_result.estimate, instance.truth)
                    ? "yes"
                    : "no",
                core::overlap(amp_result.estimate, instance.truth),
                static_cast<long long>(amp_result.iterations));
  }

  // --- the τ² trace of the last instance against state evolution ---
  const amp::BayesBernoulliDenoiser denoiser(se_params.pi);
  const auto se = amp::run_state_evolution(se_params, denoiser);

  std::printf("\n");
  ConsoleTable table({"iter", "empirical tau^2", "state-evolution tau^2"});
  const std::size_t rows =
      std::min(amp_result.tau2_history.size(), se.tau2.size());
  for (std::size_t t = 0; t < std::min<std::size_t>(rows, 12); ++t) {
    table.add_row_doubles({static_cast<double>(t),
                           amp_result.tau2_history[t], se.tau2[t]});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nReading: AMP's first iteration uses exactly the neighborhood-sum\n"
      "information of Algorithm 1 (conclusion of the paper); the following\n"
      "iterations clean up the remaining errors, which is why AMP's exact-\n"
      "recovery transition sits at smaller m.  The empirical tau^2 tracks\n"
      "the state-evolution prediction until finite-size effects kick in.\n");
  return 0;
}
