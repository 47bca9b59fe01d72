// Scenario: heavy-hitter detection in network traffic (the paper's
// *linear* regime).
//
// A monitoring fabric watches n flows of which a constant fraction
// ζ are "heavy" (the paper cites traffic monitoring [50] as a linear-
// regime application).  Sketch counters aggregate random subsets of flows;
// counter readouts are noisy.  We reconstruct the heavy set with
// Algorithm 1 and examine how the required number of counters scales with
// ζ — the Theorem 1 linear bound m = Θ((q + (1−p−q)ζ)/(1−p−q)²·n·ln n).

#include <cmath>
#include <cstdio>

#include "core/evaluation.hpp"
#include "core/greedy.hpp"
#include "core/instance.hpp"
#include "core/theory.hpp"
#include "harness/required_queries.hpp"
#include "harness/stats.hpp"
#include "noise/channel.hpp"
#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace npd;

  CliParser cli("traffic_monitoring",
                "Heavy-hitter detection in the linear regime.");
  const long long& n_arg = cli.add_int("n", 1000, "number of flows");
  const long long& reps =
      cli.add_int("reps", 3, "required-counter measurements per zeta");
  cli.parse(argc, argv);

  std::printf("=== Traffic monitoring (linear regime, k = zeta*n) ===\n\n");

  if (n_arg < 2) {
    std::fprintf(stderr, "error: --n must be at least 2 (got %lld)\n", n_arg);
    return 1;
  }
  if (reps < 1) {
    std::printf("nothing to do: --reps %lld\n", static_cast<long long>(reps));
    return 0;
  }

  const auto n = static_cast<Index>(n_arg);
  const double p = 0.05;  // counter under-count rate
  const double q = 0.01;  // counter over-count rate
  const auto channel = noise::make_bitflip_channel(p, q);

  std::printf("flows n = %lld, channel p = %.2f q = %.2f\n\n",
              static_cast<long long>(n), p, q);

  ConsoleTable table({"zeta", "heavy flows k", "median counters m",
                      "theory m (derivation)", "theory m (verbatim)"});

  for (const double zeta : {0.01, 0.02, 0.05, 0.1}) {
    const Index k = pooling::linear_k(n, zeta);
    std::vector<double> ms;
    for (long long rep = 0; rep < reps; ++rep) {
      rand::Rng rng(5000 + static_cast<std::uint64_t>(zeta * 1000) +
                    static_cast<std::uint64_t>(rep));
      ms.push_back(static_cast<double>(
          harness::required_queries(n, k, pooling::paper_design(n), *channel,
                                    rng)
              .m));
    }
    const double derivation =
        core::theory::channel_linear(n, zeta, p, q, 0.1, false);
    const double verbatim =
        core::theory::channel_linear(n, zeta, p, q, 0.1, true);
    table.add_row({format_double(zeta), std::to_string(k),
                   format_double(harness::median(ms)),
                   format_double(std::ceil(derivation)),
                   format_double(std::ceil(verbatim))});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nNotes: (1) the two theory columns differ because the constant\n"
      "printed in Theorem 1's linear case drops a zeta relative to the\n"
      "derivation in Section IV-C (Equations 16-17) — see core/theory.hpp.\n"
      "(2) At this small n the asymptotic constants undershoot for small\n"
      "zeta (q ~ k/n sits right at the regime boundary); what the theorem\n"
      "predicts — and the measurements show — is the flat-then-linear\n"
      "growth of m in zeta at fixed n.\n");

  // A single reconstruction at the largest zeta, end to end.
  const double zeta = 0.1;
  const Index k = pooling::linear_k(n, zeta);
  const auto m = static_cast<Index>(
      std::ceil(1.5 * core::theory::channel_linear(n, zeta, p, q, 0.1)));
  rand::Rng rng(77777);
  const core::Instance instance =
      core::make_instance(n, k, m, pooling::paper_design(n), *channel, rng);
  const auto result = core::greedy_reconstruct(instance);
  std::printf(
      "\nFull run at zeta = %.2f: m = %lld counters, exact recovery: %s,\n"
      "overlap %.3f, separation gap %.1f\n",
      zeta, static_cast<long long>(m),
      core::exact_success(result.estimate, instance.truth) ? "yes" : "no",
      core::overlap(result.estimate, instance.truth), result.separation_gap);
  return 0;
}
