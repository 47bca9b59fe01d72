// Statistical property tests pinning the paper's Lemmas 3 and 4 and
// Corollary 5: the degree sequences of the random pooling graph
// concentrate where the analysis says they do.
//
//   Lemma 3:     Δ_i ~ Bin(mΓ, 1/n), so E[Δ] = mΓ/n = m/2 under Γ = n/2,
//                and all degrees lie within ±ln(n)√Δ of the mean w.h.p.
//   Lemma 4:     Δ*_i = 2(1 − e^{−1/2})·Δ_i + lower order  (≈ 0.787·Δ_i)
//   Corollary 5: E[Δ*] = (1 − e^{−1/2})·m and ±ln²(n)√Δ* concentration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "agent_incidence.hpp"
#include "core/theory.hpp"
#include "pooling/pooling_graph.hpp"
#include "pooling/query_design.hpp"
#include "rand/rng.hpp"

namespace npd::pooling {
namespace {

struct GridPoint {
  Index n;
  Index m;
  std::uint64_t seed;
};

class DegreeConcentrationTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(DegreeConcentrationTest, Lemma3DeltaConcentratesAroundHalfM) {
  const GridPoint point = GetParam();
  rand::Rng rng(point.seed);
  const AgentIncidence g = agent_incidence(
      make_pooling_graph(point.n, point.m, paper_design(point.n), rng));

  const double expected =
      static_cast<double>(point.m) * static_cast<double>(point.n / 2) /
      static_cast<double>(point.n);
  const double slack =
      std::log(static_cast<double>(point.n)) * std::sqrt(expected);

  for (std::size_t i = 0; i < g.delta.size(); ++i) {
    EXPECT_GE(static_cast<double>(g.delta[i]), expected - slack)
        << "agent " << i << " under-sampled";
    EXPECT_LE(static_cast<double>(g.delta[i]), expected + slack)
        << "agent " << i << " over-sampled";
  }
}

TEST_P(DegreeConcentrationTest, Lemma4DeltaStarRatioIsTwoGamma) {
  const GridPoint point = GetParam();
  rand::Rng rng(point.seed + 17);
  const AgentIncidence g = agent_incidence(
      make_pooling_graph(point.n, point.m, paper_design(point.n), rng));

  // Δ*_i / Δ_i ≈ 2γ = 2(1 − e^{−1/2}) ≈ 0.7869, up to O(ln n/√Δ) noise.
  const double two_gamma = 2.0 * core::theory::gamma_constant();
  double ratio_sum = 0.0;
  for (std::size_t i = 0; i < g.delta.size(); ++i) {
    ASSERT_GT(g.delta[i], 0);
    ratio_sum +=
        static_cast<double>(g.delta_star[i]) / static_cast<double>(g.delta[i]);
  }
  const double mean_ratio = ratio_sum / static_cast<double>(point.n);
  EXPECT_NEAR(mean_ratio, two_gamma, 0.05);
}

TEST_P(DegreeConcentrationTest, Corollary5DeltaStarMean) {
  const GridPoint point = GetParam();
  rand::Rng rng(point.seed + 34);
  const AgentIncidence g = agent_incidence(
      make_pooling_graph(point.n, point.m, paper_design(point.n), rng));

  // E[Δ*] = γ·m: each query misses agent i with prob (1 − 1/n)^Γ ≈ e^{-1/2}.
  const double expected =
      core::theory::gamma_constant() * static_cast<double>(point.m);
  double sum = 0.0;
  for (const Index delta_star : g.delta_star) {
    sum += static_cast<double>(delta_star);
  }
  const double mean_delta_star = sum / static_cast<double>(point.n);
  EXPECT_NEAR(mean_delta_star / expected, 1.0, 0.05);
}

TEST_P(DegreeConcentrationTest, QueryMembershipProbabilityIsGamma) {
  // P(agent i ∈ ∂*a) = 1 − (1 − 1/n)^Γ ≈ 1 − e^{−1/2} = γ for Γ = n/2.
  const GridPoint point = GetParam();
  rand::Rng rng(point.seed + 51);
  const PoolingGraph g =
      make_pooling_graph(point.n, point.m, paper_design(point.n), rng);

  Index incidences = 0;
  for (Index j = 0; j < g.num_queries(); ++j) {
    incidences += static_cast<Index>(g.query_distinct(j).size());
  }
  const double observed =
      static_cast<double>(incidences) /
      (static_cast<double>(point.n) * static_cast<double>(point.m));
  const double gamma_exact =
      1.0 - std::pow(1.0 - 1.0 / static_cast<double>(point.n),
                     static_cast<double>(point.n / 2));
  EXPECT_NEAR(observed, gamma_exact, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DegreeConcentrationTest,
    ::testing::Values(GridPoint{100, 200, 1}, GridPoint{300, 150, 2},
                      GridPoint{1000, 400, 3}, GridPoint{2000, 100, 4}),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      // Built with append rather than an operator+ chain: GCC 12 at -O2
      // flags the temporary-chain form with a spurious -Wrestrict
      // (GCC PR 105329).
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_m";
      name += std::to_string(info.param.m);
      return name;
    });

}  // namespace
}  // namespace npd::pooling
