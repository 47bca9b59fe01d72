// Tests for the experiment harness: descriptive statistics, the paper's
// required-queries protocol (determinism, sanity of the measured m,
// monotonicity in noise) and the sweep drivers.

#include <gtest/gtest.h>

#include <cmath>

#include "core/theory.hpp"
#include "harness/required_queries.hpp"
#include "harness/stats.hpp"
#include "harness/sweeps.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/query_design.hpp"
#include "util/assert.hpp"

namespace npd::harness {
namespace {

rand::Rng test_rng(std::uint64_t tag = 0) { return rand::Rng(0x4A12 + tag); }

// ------------------------------------------------------------------ stats

TEST(StatsTest, MeanAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);  // sample stddev
}

TEST(StatsTest, StddevDegenerate) {
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{7.0}), 0.0);
}

TEST(StatsTest, QuantileType7KnownValues) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.75);  // R: quantile(1:4, .25)
  EXPECT_DOUBLE_EQ(quantile(xs, 0.75), 3.25);
}

TEST(StatsTest, QuantileUnsortedInput) {
  const std::vector<double> xs{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
}

TEST(StatsTest, TailPercentilesAreQuantileWrappers) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) {
    xs.push_back(static_cast<double>(i));
  }
  // R type 7 on 1..100: h = 99q + 1.
  EXPECT_DOUBLE_EQ(p95(xs), 95.05);
  EXPECT_DOUBLE_EQ(p99(xs), 99.01);
  EXPECT_DOUBLE_EQ(p95(xs), quantile(xs, 0.95));
  EXPECT_DOUBLE_EQ(p99(xs), quantile(xs, 0.99));
  // Degenerate single-sample input collapses to that sample.
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(p95(one), 7.0);
  EXPECT_DOUBLE_EQ(p99(one), 7.0);
  EXPECT_THROW((void)p95(std::vector<double>{}), ContractViolation);
  EXPECT_THROW((void)p99(std::vector<double>{}), ContractViolation);
}

TEST(StatsTest, FiveNumberSummary) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const FiveNumberSummary s = five_number_summary(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(StatsTest, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW((void)mean(empty), ContractViolation);
  EXPECT_THROW((void)quantile(empty, 0.5), ContractViolation);
  EXPECT_THROW((void)five_number_summary(empty), ContractViolation);
  EXPECT_THROW((void)quantile(std::vector<double>{1.0}, 1.5),
               ContractViolation);
}

TEST(StatsTest, ToDoublesConverts) {
  const std::vector<Index> xs{1, 2, 3};
  const auto ds = to_doubles(xs);
  EXPECT_EQ(ds, (std::vector<double>{1.0, 2.0, 3.0}));
}

// --------------------------------------------------------- grid builders

TEST(GridTest, LogGridEndpointsAndMonotone) {
  const auto grid = log_grid(100, 10000, 2);
  EXPECT_EQ(grid.front(), 100);
  EXPECT_EQ(grid.back(), 10000);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
  }
  // 2 points per decade over 2 decades: 100, ~316, 1000, ~3162, 10000.
  EXPECT_EQ(grid.size(), 5u);
}

TEST(GridTest, LinearGrid) {
  EXPECT_EQ(linear_grid(0, 10, 5), (std::vector<Index>{0, 5, 10}));
  EXPECT_EQ(linear_grid(3, 4, 2), (std::vector<Index>{3}));
}

// ----------------------------------------------------- required queries

TEST(RequiredQueriesTest, DeterministicGivenSeed) {
  const auto channel = noise::make_z_channel(0.1);
  const pooling::QueryDesign design = pooling::paper_design(200);
  auto rng1 = test_rng(1);
  auto rng2 = test_rng(1);
  const auto r1 = required_queries(200, 4, design, *channel, rng1);
  const auto r2 = required_queries(200, 4, design, *channel, rng2);
  EXPECT_EQ(r1.m, r2.m);
  EXPECT_EQ(r1.reached, r2.reached);
}

TEST(RequiredQueriesTest, TerminatesNearTheoryBoundNoiseless) {
  // The measured m should be on the order of the Theorem 1 bound — not
  // 10x above (protocol bug) nor absurdly below (check bug).
  const Index n = 1000;
  const double theta = 0.25;
  const Index k = pooling::sublinear_k(n, theta);
  const auto channel = noise::make_noiseless();
  const double bound = core::theory::z_channel_sublinear(n, theta, 0.0, 0.05);

  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    auto rng = test_rng(10 + static_cast<std::uint64_t>(rep));
    const auto r =
        required_queries(n, k, pooling::paper_design(n), *channel, rng);
    ASSERT_TRUE(r.reached);
    ms.push_back(static_cast<double>(r.m));
  }
  const double med = median(ms);
  EXPECT_LT(med, 1.2 * bound);
  EXPECT_GT(med, 0.02 * bound);
}

TEST(RequiredQueriesTest, MoreNoiseNeedsMoreQueries) {
  // Median required m should increase with the flip probability p.
  const Index n = 500;
  const Index k = pooling::sublinear_k(n, 0.25);
  const pooling::QueryDesign design = pooling::paper_design(n);

  const auto median_m = [&](double p) {
    const auto channel = noise::make_z_channel(p);
    std::vector<double> ms;
    for (int rep = 0; rep < 15; ++rep) {
      auto rng = test_rng(100 + static_cast<std::uint64_t>(rep) +
                          static_cast<std::uint64_t>(p * 1000) * 31);
      ms.push_back(static_cast<double>(
          required_queries(n, k, design, *channel, rng).m));
    }
    return median(ms);
  };

  const double m_low = median_m(0.05);
  const double m_high = median_m(0.5);
  EXPECT_LT(m_low, m_high);
}

TEST(RequiredQueriesTest, CapIsRespected) {
  // Make the problem unsolvable within the cap: enormous Gaussian noise.
  const auto channel = noise::make_gaussian_channel(1e5);
  RequiredQueriesOptions options;
  options.max_queries = 50;
  auto rng = test_rng(2);
  const auto r = required_queries(200, 4, pooling::paper_design(200),
                                  *channel, rng, options);
  EXPECT_FALSE(r.reached);
  EXPECT_EQ(r.m, 50);
}

TEST(RequiredQueriesTest, CheckIntervalCoarsensAnswer) {
  const auto channel = noise::make_noiseless();
  auto rng1 = test_rng(3);
  auto rng2 = test_rng(3);
  RequiredQueriesOptions fine;
  RequiredQueriesOptions coarse;
  coarse.check_interval = 10;
  const auto r_fine = required_queries(300, 4, pooling::paper_design(300),
                                       *channel, rng1, fine);
  const auto r_coarse = required_queries(300, 4, pooling::paper_design(300),
                                         *channel, rng2, coarse);
  ASSERT_TRUE(r_fine.reached);
  ASSERT_TRUE(r_coarse.reached);
  EXPECT_GE(r_coarse.m, r_fine.m);
  EXPECT_EQ(r_coarse.m % 10, 0);
}

TEST(RequiredQueriesTest, FixedTruthVariantUsesGivenTruth) {
  auto rng = test_rng(4);
  const pooling::GroundTruth truth = pooling::make_ground_truth(100, 3, rng);
  const auto channel = noise::make_noiseless();
  const auto r = required_queries_for_truth(
      truth, pooling::paper_design(100), *channel, rng);
  EXPECT_TRUE(r.reached);
}

TEST(RequiredQueriesTest, AwareCenteringNeedsFewerQueriesWhenQPositive) {
  // With false positives (q > 0), the channel-aware centering of the
  // analysis (Equation 3) should dominate the oblivious listing.
  const Index n = 400;
  const Index k = pooling::sublinear_k(n, 0.25);
  const double p = 0.05;
  const double q = 0.05;
  const noise::BitFlipChannel channel(p, q);
  const pooling::QueryDesign design = pooling::paper_design(n);

  RequiredQueriesOptions oblivious;
  oblivious.max_queries = 30000;
  RequiredQueriesOptions aware;
  aware.max_queries = 30000;
  aware.centering = core::Centering{.offset_per_slot = q,
                                    .gain = 1.0 - p - q};

  std::vector<double> m_oblivious;
  std::vector<double> m_aware;
  for (int rep = 0; rep < 8; ++rep) {
    auto rng1 = test_rng(600 + static_cast<std::uint64_t>(rep));
    auto rng2 = test_rng(600 + static_cast<std::uint64_t>(rep));
    m_oblivious.push_back(static_cast<double>(
        required_queries(n, k, design, channel, rng1, oblivious).m));
    m_aware.push_back(static_cast<double>(
        required_queries(n, k, design, channel, rng2, aware).m));
  }
  EXPECT_LT(median(m_aware), median(m_oblivious));
}

TEST(RequiredQueriesTest, RejectsDegenerateK) {
  const auto channel = noise::make_noiseless();
  auto rng = test_rng(5);
  EXPECT_THROW((void)required_queries(100, 0, pooling::paper_design(100),
                                      *channel, rng),
               ContractViolation);
  EXPECT_THROW((void)required_queries(100, 100, pooling::paper_design(100),
                                      *channel, rng),
               ContractViolation);
}

// ------------------------------------------------------------- sweeps

TEST(SweepTest, RequiredQueriesSweepShape) {
  const auto rows = required_queries_sweep(
      {100, 200}, 4, [](Index n) { return pooling::sublinear_k(n, 0.25); },
      [](Index n) { return pooling::paper_design(n); },
      [](Index, Index) { return noise::make_noiseless(); }, 99);

  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].n, 100);
  EXPECT_EQ(rows[1].n, 200);
  for (const auto& row : rows) {
    EXPECT_EQ(row.reps, 4);
    EXPECT_EQ(row.samples.size(), 4u);
    EXPECT_EQ(row.unreached, 0);
    EXPECT_LE(row.summary.min, row.summary.median);
    EXPECT_LE(row.summary.median, row.summary.max);
    EXPECT_GT(row.mean_m, 0.0);
  }
}

TEST(SweepTest, RequiredQueriesSweepIsReproducible) {
  const auto run = [] {
    return required_queries_sweep(
        {150}, 3, [](Index n) { return pooling::sublinear_k(n, 0.25); },
        [](Index n) { return pooling::paper_design(n); },
        [](Index, Index) { return noise::make_z_channel(0.1); }, 1234);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].samples, b[0].samples);
}

TEST(SweepTest, SuccessSweepRatesAreMonotoneIsh) {
  // Success at far-too-few queries must be worse than at ample queries.
  const auto points = success_sweep(
      200, 4, {5, 120}, 12, [](Index n) { return pooling::paper_design(n); },
      [](Index, Index) { return noise::make_noiseless(); },
      Algorithm::Greedy, 7);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_LT(points[0].success_rate, points[1].success_rate);
  EXPECT_LE(points[0].mean_overlap, points[1].mean_overlap + 1e-9);
  EXPECT_DOUBLE_EQ(points[1].success_rate, 1.0);
}

TEST(SweepTest, SuccessSweepCoversAllAlgorithms) {
  for (const Algorithm alg :
       {Algorithm::Greedy, Algorithm::Amp, Algorithm::TwoStage}) {
    const auto points = success_sweep(
        150, 3, {80}, 4, [](Index n) { return pooling::paper_design(n); },
        [](Index, Index) { return noise::make_z_channel(0.1); }, alg, 11);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_GE(points[0].success_rate, 0.0);
    EXPECT_LE(points[0].success_rate, 1.0);
    EXPECT_GE(points[0].mean_overlap, 0.0);
    EXPECT_LE(points[0].mean_overlap, 1.0);
  }
}

TEST(SweepTest, ThreadCountDoesNotChangeResults) {
  // Parallel repetitions must be bit-identical to sequential ones: each
  // rep derives its own RNG stream from (seed, point, rep).
  const auto run = [](Index threads) {
    return required_queries_sweep(
        {120, 200}, 6, [](Index n) { return pooling::sublinear_k(n, 0.25); },
        [](Index n) { return pooling::paper_design(n); },
        [](Index, Index) { return noise::make_z_channel(0.1); }, 777, {},
        threads);
  };
  const auto sequential = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].samples, parallel[i].samples);
  }
}

TEST(SweepTest, SuccessSweepThreadsDeterministic) {
  const auto run = [](Index threads) {
    return success_sweep(
        150, 3, {60, 120}, 8, [](Index n) { return pooling::paper_design(n); },
        [](Index, Index) { return noise::make_z_channel(0.1); },
        Algorithm::Greedy, 99, {}, threads);
  };
  const auto sequential = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_DOUBLE_EQ(sequential[i].success_rate, parallel[i].success_rate);
    EXPECT_DOUBLE_EQ(sequential[i].mean_overlap, parallel[i].mean_overlap);
  }
}

}  // namespace
}  // namespace npd::harness
