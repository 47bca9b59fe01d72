// Tests for the neighborhood-sum accounting of Algorithm 1 (src/core):
// exact bookkeeping identities, the incremental protocol, and the
// distributional facts of Lemma 8 / Equation (2).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "agent_incidence.hpp"
#include "core/instance.hpp"
#include "core/scores.hpp"
#include "core/theory.hpp"
#include "noise/channel.hpp"
#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "util/assert.hpp"

namespace npd::core {
namespace {

rand::Rng test_rng(std::uint64_t tag = 0) { return rand::Rng(0xC0DE + tag); }

// --------------------------------------------------------- bookkeeping

TEST(ScoreStateTest, SingleQueryAccounting) {
  ScoreState state(6, 2);
  // Query multiset {0, 0, 3}: agent 0 appears twice, 3 once.
  state.apply_query(std::vector<Index>{0, 0, 3}, 7.5);

  EXPECT_DOUBLE_EQ(state.psi(0), 7.5);   // result counted once (distinct)
  EXPECT_EQ(state.delta(0), 2);          // sampled twice
  EXPECT_EQ(state.delta_star(0), 1);
  EXPECT_DOUBLE_EQ(state.psi(3), 7.5);
  EXPECT_EQ(state.delta(3), 1);
  EXPECT_DOUBLE_EQ(state.psi(1), 0.0);
  EXPECT_EQ(state.queries_applied(), 1);
}

TEST(ScoreStateTest, CenteredScoreSubtractsHalfKPerQuery) {
  ScoreState state(4, 3);  // k/2 = 1.5
  state.apply_query(std::vector<Index>{0, 1}, 10.0);
  state.apply_query(std::vector<Index>{0, 2}, 20.0);

  EXPECT_DOUBLE_EQ(state.centered_score(0), 30.0 - 2 * 1.5);
  EXPECT_DOUBLE_EQ(state.centered_score(1), 10.0 - 1.5);
  EXPECT_DOUBLE_EQ(state.centered_score(3), 0.0);
}

TEST(ScoreStateTest, CenteredScoresVectorMatchesPointwise) {
  ScoreState state(5, 2);
  state.apply_query(std::vector<Index>{0, 1, 1, 4}, 3.0);
  const auto scores = state.centered_scores();
  ASSERT_EQ(scores.size(), 5u);
  for (Index i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(scores[static_cast<std::size_t>(i)],
                     state.centered_score(i));
  }
}

TEST(ScoreStateTest, DistinctPathMatchesMultisetPath) {
  ScoreState a(8, 3);
  ScoreState b(8, 3);
  const std::vector<Index> multiset{2, 5, 2, 2, 7};
  a.apply_query(multiset, 4.0);

  const std::vector<Index> distinct{2, 5, 7};
  const std::vector<Index> counts{3, 1, 1};
  b.apply_query_distinct(distinct, counts, 4.0);

  for (Index i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.psi(i), b.psi(i));
    EXPECT_EQ(a.delta(i), b.delta(i));
    EXPECT_EQ(a.delta_star(i), b.delta_star(i));
  }
}

TEST(ScoreStateTest, ResetClearsEverything) {
  ScoreState state(3, 1);
  state.apply_query(std::vector<Index>{0, 1, 1}, 5.0);
  state.reset();
  for (Index i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(state.psi(i), 0.0);
    EXPECT_EQ(state.delta(i), 0);
    EXPECT_EQ(state.delta_star(i), 0);
  }
  EXPECT_EQ(state.queries_applied(), 0);
  // Stamp epoch must also restart cleanly: re-apply and check dedup.
  state.apply_query(std::vector<Index>{2, 2}, 1.0);
  EXPECT_EQ(state.delta_star(2), 1);
  EXPECT_DOUBLE_EQ(state.psi(2), 1.0);
}

TEST(ScoreStateTest, PsiIdentityAgainstBruteForce) {
  // Ψ_i must equal Σ over distinct queries containing i of the result.
  auto rng = test_rng(1);
  const auto channel = noise::make_gaussian_channel(0.5);
  const Instance instance =
      make_instance(30, 5, 12, pooling::paper_design(30), *channel, rng);
  const ScoreState state = compute_scores(instance);
  const pooling::AgentIncidence agents =
      pooling::agent_incidence(instance.graph);

  for (Index i = 0; i < instance.n(); ++i) {
    double expected = 0.0;
    Index expected_star = 0;
    for (Index j = 0; j < instance.m(); ++j) {
      if (instance.graph.multiplicity(j, i) > 0) {
        expected += instance.results[static_cast<std::size_t>(j)];
        ++expected_star;
      }
    }
    EXPECT_NEAR(state.psi(i), expected, 1e-9) << "agent " << i;
    EXPECT_EQ(state.delta_star(i), expected_star);
    EXPECT_EQ(state.delta(i), agents.delta[static_cast<std::size_t>(i)]);
  }
}

TEST(ScoreStateTest, RejectsEmptyQuery) {
  ScoreState state(3, 1);
  EXPECT_THROW(state.apply_query({}, 1.0), ContractViolation);
}

TEST(ScoreStateTest, RejectsBadConstruction) {
  EXPECT_THROW(ScoreState(0, 0), ContractViolation);
  EXPECT_THROW(ScoreState(5, 6), ContractViolation);
}

// --------------------------------------------------------- centering API

TEST(CenteringTest, DefaultMatchesAlgorithmOneListing) {
  // Default centering: Γ·k/n per query (= Δ*·k/2 for Γ = n/2).
  ScoreState state(4, 3);
  state.apply_query(std::vector<Index>{0, 1}, 10.0);
  EXPECT_DOUBLE_EQ(state.centered_score(0), 10.0 - 2.0 * 3.0 / 4.0);
}

TEST(CenteringTest, AwareCenteringSubtractsChannelMean) {
  // center per query = Γ·(q + (1−p−q)·k/n).
  const Centering aware{.offset_per_slot = 0.1, .gain = 0.7};
  ScoreState state(10, 2, aware);
  state.apply_query(std::vector<Index>{0, 1, 2, 3}, 5.0);
  const double expected_center = 4.0 * (0.1 + 0.7 * 0.2);
  EXPECT_DOUBLE_EQ(state.centered_score(0), 5.0 - expected_center);
  EXPECT_DOUBLE_EQ(state.centered_score(9), 0.0);
}

TEST(CenteringTest, CenteringFromLinearizationDividesOffset) {
  const noise::BitFlipChannel channel(0.2, 0.1);
  const auto lin = channel.linearization(100, 10, 50);
  const Centering c = centering_from(lin, 50);
  EXPECT_DOUBLE_EQ(c.offset_per_slot, 0.1);  // q
  EXPECT_DOUBLE_EQ(c.gain, 0.7);             // 1 − p − q
}

TEST(CenteringTest, CenteringFromRejectsZeroGamma) {
  EXPECT_THROW((void)centering_from(noise::Linearization{}, 0),
               ContractViolation);
}

TEST(CenteringTest, AwareCenteringReducesScoreSpreadUnderFalsePositives) {
  // With q > 0 the oblivious centering leaves a q·Γ·Δ* term that varies
  // across agents; the channel-aware centering removes it.  Compare the
  // spread of the zero-agents' scores under both centerings on the same
  // instance.
  auto rng = test_rng(40);
  const double p = 0.1;
  const double q = 0.1;
  const noise::BitFlipChannel channel(p, q);
  const Instance instance =
      make_instance(500, 5, 200, pooling::paper_design(500), channel, rng);

  const ScoreState oblivious = compute_scores(instance);
  const ScoreState aware = compute_scores(
      instance, Centering{.offset_per_slot = q, .gain = 1.0 - p - q});

  const auto spread = [&](const ScoreState& state) {
    double sum = 0.0;
    double sum_sq = 0.0;
    Index zeros = 0;
    for (Index i = 0; i < instance.n(); ++i) {
      if (instance.truth.bits[static_cast<std::size_t>(i)] == 0) {
        const double s = state.centered_score(i);
        sum += s;
        sum_sq += s * s;
        ++zeros;
      }
    }
    const double mean = sum / static_cast<double>(zeros);
    return sum_sq / static_cast<double>(zeros) - mean * mean;
  };

  EXPECT_LT(spread(aware), spread(oblivious) / 2.0)
      << "aware centering should remove the dominant q*Gamma*Delta* noise";
}

// ------------------------------------------------- noiseless separation

TEST(ScoresNoiselessTest, NeighborhoodSumDecomposition) {
  // Noiseless: Ψ_j = Ξ_j + Δ_j·1{σ_j = 1} (Section IV-B).  Verify the
  // self-contribution by comparing Ψ against the sum with agent j's own
  // multiplicity removed.
  auto rng = test_rng(2);
  const auto channel = noise::make_noiseless();
  const Instance instance =
      make_instance(40, 8, 30, pooling::paper_design(40), *channel, rng);
  const ScoreState state = compute_scores(instance);
  const pooling::AgentIncidence agents =
      pooling::agent_incidence(instance.graph);

  for (Index i = 0; i < instance.n(); ++i) {
    double xi = 0.0;  // second-neighborhood observed ones
    for (const Index j : agents.queries[static_cast<std::size_t>(i)]) {
      xi += instance.results[static_cast<std::size_t>(j)] -
            static_cast<double>(instance.graph.multiplicity(j, i)) *
                instance.truth.bits[static_cast<std::size_t>(i)];
    }
    const double self_term =
        instance.truth.bits[static_cast<std::size_t>(i)] != 0
            ? static_cast<double>(agents.delta[static_cast<std::size_t>(i)])
            : 0.0;
    EXPECT_NEAR(state.psi(i), xi + self_term, 1e-9);
  }
}

// ----------------------------------------- Lemma 8 / Eq (2) mean gap

struct ChannelParams {
  double p;
  double q;
};

class ScoreGapTest : public ::testing::TestWithParam<ChannelParams> {};

TEST_P(ScoreGapTest, MeanScoreGapMatchesFiniteNExpectation) {
  // The analysis centers with the per-agent mean E[Ξ^pq_j], under which
  // the group gap is exactly Δ(1−p−q) (Equation 2).  The *implementable*
  // centering Δ*_j·k/2 of Algorithm 1 differs by the σ_j-dependent part
  // of E[Ξ^pq]: a one-agent's second neighborhood holds k−1 (not k) other
  // ones, lowering its Ξ mean by n_j(1−p−q)/(n−1) with n_j = Δ*Γ − Δ.
  // The expected gap of the implemented score is therefore
  //     (Δ − (Δ*Γ − Δ)/(n−1))·(1−p−q),
  // with Δ = m/2, Δ* = γm, Γ = n/2 — a Θ(Δ) finite-size correction that
  // shrinks (never flips) the separation.
  const ChannelParams params = GetParam();
  const Index n = 400;
  const Index k = 40;
  const Index m = 400;
  auto rng = test_rng(3);
  const noise::BitFlipChannel channel(params.p, params.q);
  const Instance instance =
      make_instance(n, k, m, pooling::paper_design(n), channel, rng);
  const ScoreState state = compute_scores(instance);

  double sum_one = 0.0;
  double sum_zero = 0.0;
  for (Index i = 0; i < n; ++i) {
    if (instance.truth.bits[static_cast<std::size_t>(i)] != 0) {
      sum_one += state.centered_score(i);
    } else {
      sum_zero += state.centered_score(i);
    }
  }
  const double gap = sum_one / static_cast<double>(k) -
                     sum_zero / static_cast<double>(n - k);
  const double delta = static_cast<double>(m) / 2.0;
  const double delta_star = theory::gamma_constant() * static_cast<double>(m);
  const double gamma_pool = static_cast<double>(n) / 2.0;
  const double second_neighborhood = delta_star * gamma_pool - delta;
  const double expected_gap =
      (delta - second_neighborhood / static_cast<double>(n - 1)) *
      (1.0 - params.p - params.q);
  // Allow generous slack: single graph draw, O(√Δ·polylog) fluctuations.
  EXPECT_NEAR(gap / expected_gap, 1.0, 0.35)
      << "p=" << params.p << " q=" << params.q;
}

INSTANTIATE_TEST_SUITE_P(
    ChannelGrid, ScoreGapTest,
    ::testing::Values(ChannelParams{0.0, 0.0}, ChannelParams{0.1, 0.0},
                      ChannelParams{0.3, 0.0}, ChannelParams{0.1, 0.1},
                      ChannelParams{0.2, 0.05}),
    [](const ::testing::TestParamInfo<ChannelParams>& info) {
      const auto fmt = [](double v) {
        std::string s = std::to_string(v);
        for (auto& c : s) {
          if (c == '.' || c == '-') {
            c = '_';
          }
        }
        return s.substr(0, 4);
      };
      return "p" + fmt(info.param.p) + "_q" + fmt(info.param.q);
    });

// -------------------------------------------------------------- instance

TEST(InstanceTest, DimensionsAreConsistent) {
  auto rng = test_rng(4);
  const auto channel = noise::make_noiseless();
  const Instance instance =
      make_instance(25, 4, 10, pooling::paper_design(25), *channel, rng);
  EXPECT_EQ(instance.n(), 25);
  EXPECT_EQ(instance.m(), 10);
  EXPECT_EQ(instance.k(), 4);
  EXPECT_EQ(instance.results.size(), 10u);
}

TEST(InstanceTest, NoiselessResultsAreExactPoolSums) {
  auto rng = test_rng(5);
  const auto channel = noise::make_noiseless();
  const Instance instance =
      make_instance(25, 4, 10, pooling::paper_design(25), *channel, rng);
  for (Index j = 0; j < instance.m(); ++j) {
    const double expected = static_cast<double>(noise::exact_pool_sum(
        instance.graph.query_multiset(j), instance.truth.bits));
    EXPECT_DOUBLE_EQ(instance.results[static_cast<std::size_t>(j)], expected);
  }
}

TEST(InstanceTest, MeasureAllChecksDimensions) {
  auto rng = test_rng(6);
  const auto channel = noise::make_noiseless();
  const pooling::GroundTruth truth = pooling::make_ground_truth(10, 2, rng);
  const pooling::GroundTruth wrong = pooling::make_ground_truth(11, 2, rng);
  const pooling::PoolingGraph graph =
      pooling::make_pooling_graph(10, 5, pooling::paper_design(10), rng);
  EXPECT_NO_THROW((void)measure_all(graph, truth, *channel, rng));
  EXPECT_THROW((void)measure_all(graph, wrong, *channel, rng),
               ContractViolation);
}

}  // namespace
}  // namespace npd::core
