// Tests for the appendix inequalities (Theorems 10 and 11): every bound
// is checked against Monte Carlo estimates or the exact erfc tail, plus
// invariants (monotonicity, the Mill's-ratio sandwich) and conservation
// laws of the score accounting used throughout the analysis.

#include <gtest/gtest.h>

#include <cmath>

#include "agent_incidence.hpp"
#include "core/concentration.hpp"
#include "core/instance.hpp"
#include "core/scores.hpp"
#include "noise/channel.hpp"
#include "pooling/query_design.hpp"
#include "rand/distributions.hpp"
#include "rand/rng.hpp"
#include "util/assert.hpp"

namespace npd::core::concentration {
namespace {

// ----------------------------------------------------------- Theorem 10

TEST(ChernoffTest, UpperTailDominatesBinomialMonteCarlo) {
  // Bin(400, 0.3): check P(X >= (1+eps)mu) <= bound for several eps.
  rand::Rng rng(0xC0C0A);
  const Index trials = 40000;
  const Index n = 400;
  const double p = 0.3;
  const double mu = static_cast<double>(n) * p;

  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(trials));
  for (Index t = 0; t < trials; ++t) {
    samples.push_back(static_cast<double>(rand::binomial(rng, n, p)));
  }
  for (const double eps : {0.1, 0.2, 0.3, 0.5}) {
    Index exceed = 0;
    for (const double x : samples) {
      if (x >= (1.0 + eps) * mu) {
        ++exceed;
      }
    }
    const double empirical =
        static_cast<double>(exceed) / static_cast<double>(trials);
    // Allow 3 Monte-Carlo standard errors of slack.
    const double se = std::sqrt(empirical * (1.0 - empirical) /
                                static_cast<double>(trials));
    EXPECT_LE(empirical - 3.0 * se, chernoff_upper_tail(mu, eps))
        << "eps=" << eps;
  }
}

TEST(ChernoffTest, LowerTailDominatesBinomialMonteCarlo) {
  rand::Rng rng(0xC0C0B);
  const Index trials = 40000;
  const Index n = 400;
  const double p = 0.3;
  const double mu = static_cast<double>(n) * p;

  for (const double eps : {0.1, 0.2, 0.3}) {
    Index below = 0;
    for (Index t = 0; t < trials; ++t) {
      if (static_cast<double>(rand::binomial(rng, n, p)) <=
          (1.0 - eps) * mu) {
        ++below;
      }
    }
    const double empirical =
        static_cast<double>(below) / static_cast<double>(trials);
    const double se = std::sqrt(empirical * (1.0 - empirical) /
                                static_cast<double>(trials));
    EXPECT_LE(empirical - 3.0 * se, chernoff_lower_tail(mu, eps))
        << "eps=" << eps;
  }
}

TEST(ChernoffTest, BoundsDecreaseInEpsAndMean) {
  EXPECT_GT(chernoff_upper_tail(100.0, 0.1), chernoff_upper_tail(100.0, 0.2));
  EXPECT_GT(chernoff_upper_tail(100.0, 0.1), chernoff_upper_tail(200.0, 0.1));
  EXPECT_GT(chernoff_lower_tail(100.0, 0.1), chernoff_lower_tail(100.0, 0.2));
}

TEST(ChernoffTest, LowerTailTighterThanUpper) {
  // exp(−ε²μ/2) ≤ exp(−ε²μ/(2+ε)) for ε > 0.
  for (const double eps : {0.1, 0.5, 1.0}) {
    EXPECT_LE(chernoff_lower_tail(50.0, eps),
              chernoff_upper_tail(50.0, eps));
  }
}

TEST(ChernoffTest, DeviationForTargetInverts) {
  const double mean = 200.0;
  const double target = 1e-3;
  const double deviation = chernoff_deviation_for_target(mean, target);
  const double eps = deviation / mean;
  EXPECT_NEAR(chernoff_two_sided(mean, eps), target, target * 0.01);
  // Tighter targets need larger deviations.
  EXPECT_LT(deviation, chernoff_deviation_for_target(mean, 1e-6));
}

TEST(ChernoffTest, ValidatesArguments) {
  EXPECT_THROW((void)chernoff_upper_tail(-1.0, 0.1), ContractViolation);
  EXPECT_THROW((void)chernoff_upper_tail(1.0, 0.0), ContractViolation);
  EXPECT_THROW((void)chernoff_deviation_for_target(0.0, 0.1),
               ContractViolation);
  EXPECT_THROW((void)chernoff_deviation_for_target(1.0, 1.5),
               ContractViolation);
}

// ----------------------------------------------------------- Theorem 11

TEST(GaussianTailTest, MillsRatioSandwichesExactTail) {
  for (const double lambda : {0.5, 1.0, 3.0}) {
    for (const double y : {1.0, 2.0, 4.0, 8.0}) {
      const double exact = gaussian_tail_exact(y * lambda, lambda);
      const double upper = gaussian_tail_upper(y * lambda, lambda);
      const double lower = gaussian_tail_lower(y * lambda, lambda);
      EXPECT_LE(exact, upper) << "y/l=" << y;
      EXPECT_GE(exact, lower) << "y/l=" << y;
    }
  }
}

TEST(GaussianTailTest, BoundsTightenDeepInTheTail) {
  // upper/lower → 1 as y/λ → ∞ (Mill's ratio asymptotics).
  const double ratio_moderate = gaussian_tail_upper(2.0, 1.0) /
                                gaussian_tail_lower(2.0, 1.0);
  const double ratio_deep =
      gaussian_tail_upper(8.0, 1.0) / gaussian_tail_lower(8.0, 1.0);
  EXPECT_GT(ratio_moderate, ratio_deep);
  EXPECT_NEAR(ratio_deep, 1.0, 0.05);
}

TEST(GaussianTailTest, ExactTailKnownValues) {
  // P(N(0,1) >= 1.96) ≈ 0.0249979.
  EXPECT_NEAR(gaussian_tail_exact(1.96, 1.0), 0.0249979, 1e-6);
  // Scaling: P(N(0, λ²) >= λy) = P(N(0,1) >= y).
  EXPECT_NEAR(gaussian_tail_exact(3.92, 2.0),
              gaussian_tail_exact(1.96, 1.0), 1e-12);
}

TEST(GaussianTailTest, LowerBoundVacuousNearOrigin) {
  // For y < λ the λ³/y³ term dominates and the bound goes negative —
  // still a valid (vacuous) lower bound.
  EXPECT_LT(gaussian_tail_lower(0.5, 1.0), 0.0);
}

TEST(GaussianTailTest, ValidatesArguments) {
  EXPECT_THROW((void)gaussian_tail_upper(0.0, 1.0), ContractViolation);
  EXPECT_THROW((void)gaussian_tail_upper(1.0, 0.0), ContractViolation);
  EXPECT_THROW((void)gaussian_tail_lower(-1.0, 1.0), ContractViolation);
}

// ----------------------------------------------- score conservation laws

TEST(ConservationTest, PsiTotalEqualsResultsWeightedByFanout) {
  // Σ_i Ψ_i = Σ_j σ̂_j·|∂*a_j|: every query result is counted once per
  // distinct recipient.  Holds exactly for every channel.
  rand::Rng rng(0x5EED);
  const noise::BitFlipChannel channel(0.2, 0.1);
  const Instance instance =
      make_instance(150, 8, 40, pooling::paper_design(150), channel, rng);
  const ScoreState scores = compute_scores(instance);

  double psi_total = 0.0;
  for (Index i = 0; i < instance.n(); ++i) {
    psi_total += scores.psi(i);
  }
  double expected = 0.0;
  for (Index j = 0; j < instance.m(); ++j) {
    expected += instance.results[static_cast<std::size_t>(j)] *
                static_cast<double>(instance.graph.query_distinct(j).size());
  }
  EXPECT_NEAR(psi_total, expected, 1e-6);
}

TEST(ConservationTest, DegreeTotalsMatchGraph) {
  rand::Rng rng(0x5EEE);
  const auto channel = noise::make_noiseless();
  const Instance instance =
      make_instance(90, 5, 25, pooling::paper_design(90), *channel, rng);
  const ScoreState scores = compute_scores(instance);
  const pooling::AgentIncidence agents =
      pooling::agent_incidence(instance.graph);

  Index delta_total = 0;
  Index delta_star_total = 0;
  for (Index i = 0; i < instance.n(); ++i) {
    const auto slot = static_cast<std::size_t>(i);
    delta_total += scores.delta(i);
    delta_star_total += scores.delta_star(i);
    EXPECT_EQ(scores.delta(i), agents.delta[slot]);
    EXPECT_EQ(scores.delta_star(i), agents.delta_star[slot]);
  }
  EXPECT_EQ(delta_total, instance.graph.num_edges());
  Index distinct_total = 0;
  for (Index j = 0; j < instance.m(); ++j) {
    distinct_total +=
        static_cast<Index>(instance.graph.query_distinct(j).size());
  }
  EXPECT_EQ(delta_star_total, distinct_total);
}

}  // namespace
}  // namespace npd::core::concentration
