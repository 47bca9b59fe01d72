// The crown-jewel integration property of the netsim module: the faithful
// distributed execution of Algorithm 1 (query broadcast + sorting-network
// rounds + rank notification) is **bit-identical** to the centralized
// reference implementation, for every channel and size tested.  Also
// verifies the protocol's round/message complexity.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "amp/amp.hpp"
#include "core/evaluation.hpp"
#include "core/greedy.hpp"
#include "core/instance.hpp"
#include "netsim/distributed_amp.hpp"
#include "netsim/distributed_greedy.hpp"
#include "netsim/distributed_topk.hpp"
#include "netsim/sorting_network.hpp"
#include "noise/channel.hpp"
#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "solve/design_spec.hpp"

namespace npd::netsim {
namespace {

struct Scenario {
  Index n;
  Index k;
  Index m;
  const char* channel;
  std::uint64_t seed;
};

std::unique_ptr<noise::NoiseChannel> make_channel(const std::string& name) {
  if (name == "noiseless") {
    return noise::make_noiseless();
  }
  if (name == "z") {
    return noise::make_z_channel(0.2);
  }
  if (name == "gnc") {
    return noise::make_bitflip_channel(0.15, 0.05);
  }
  if (name == "gauss") {
    return noise::make_gaussian_channel(1.5);
  }
  throw std::runtime_error("unknown channel " + name);
}

class DistributedEqualsCentralizedTest
    : public ::testing::TestWithParam<Scenario> {};

TEST_P(DistributedEqualsCentralizedTest, BitIdenticalEstimates) {
  const Scenario s = GetParam();
  rand::Rng rng(s.seed);
  const auto channel = make_channel(s.channel);
  const core::Instance instance = core::make_instance(
      s.n, s.k, s.m, pooling::paper_design(s.n), *channel, rng);

  const core::GreedyResult centralized = core::greedy_reconstruct(instance);
  const DistributedGreedyResult distributed =
      run_distributed_greedy(instance);

  EXPECT_EQ(distributed.estimate, centralized.estimate);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, DistributedEqualsCentralizedTest,
    ::testing::Values(Scenario{8, 2, 5, "noiseless", 1},
                      Scenario{17, 3, 12, "noiseless", 2},
                      Scenario{64, 4, 30, "z", 3},
                      Scenario{100, 5, 60, "z", 4},
                      Scenario{100, 5, 60, "gnc", 5},
                      Scenario{128, 10, 40, "gauss", 6},
                      Scenario{255, 10, 80, "z", 7},
                      Scenario{300, 8, 100, "gauss", 8},
                      Scenario{3, 1, 4, "noiseless", 9},
                      Scenario{2, 1, 3, "noiseless", 10}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.channel) + "_n" +
             std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m);
    });

TEST(DistributedGreedyTest, RoundComplexityIsSortDepthPlusThree) {
  rand::Rng rng(77);
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      100, 5, 20, pooling::paper_design(100), *channel, rng);
  const DistributedGreedyResult r = run_distributed_greedy(instance);

  const SortingSchedule schedule = make_odd_even_schedule(100);
  EXPECT_EQ(r.sorting_depth, schedule.depth());
  EXPECT_EQ(r.stats.rounds, schedule.depth() + 3);
}

TEST(DistributedGreedyTest, MessageComplexityAccounting) {
  rand::Rng rng(78);
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      60, 4, 15, pooling::paper_design(60), *channel, rng);
  const DistributedGreedyResult r = run_distributed_greedy(instance);

  // Phase I: one message per distinct (query, agent) incidence.
  Index phase1 = 0;
  for (Index j = 0; j < instance.m(); ++j) {
    phase1 += static_cast<Index>(instance.graph.query_distinct(j).size());
  }
  // Phase II: two messages per comparator, plus one rank notify per agent.
  const SortingSchedule schedule = make_odd_even_schedule(60);
  const Index expected =
      phase1 + 2 * schedule.comparator_count() + instance.n();
  EXPECT_EQ(r.stats.messages, expected);
  EXPECT_EQ(r.stats.bytes, expected * 40);
}

TEST(DistributedGreedyTest, EstimateHasExactlyKOnes) {
  rand::Rng rng(79);
  const auto channel = noise::make_gaussian_channel(2.0);
  const core::Instance instance = core::make_instance(
      90, 7, 25, pooling::paper_design(90), *channel, rng);
  const DistributedGreedyResult r = run_distributed_greedy(instance);
  Index ones = 0;
  for (const Bit b : r.estimate) {
    ones += b;
  }
  EXPECT_EQ(ones, 7);
}

TEST(DistributedGreedyTest, RecoversTruthWithAmpleQueries) {
  rand::Rng rng(80);
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      120, 3, 150, pooling::paper_design(120), *channel, rng);
  const DistributedGreedyResult r = run_distributed_greedy(instance);
  EXPECT_TRUE(core::exact_success(r.estimate, instance.truth));
}

// -------------------------------------------------------- distributed topk

TEST(DistributedTopKTest, MatchesCentralizedSelection) {
  rand::Rng rng(81);
  for (const Index n : {1, 2, 7, 50, 128, 200}) {
    std::vector<double> scores(static_cast<std::size_t>(n));
    for (auto& s : scores) {
      s = rng.uniform_real();
    }
    const Index k = std::max<Index>(1, n / 5);
    const auto distributed = run_distributed_topk(scores, k);
    const auto centralized = core::select_top_k(scores, k);
    EXPECT_EQ(distributed.estimate, centralized.estimate) << "n=" << n;
  }
}

TEST(DistributedTopKTest, TieBreakMatchesCentralized) {
  const std::vector<double> scores{3.0, 3.0, 3.0, 1.0, 3.0};
  const auto distributed = run_distributed_topk(scores, 2);
  const auto centralized = core::select_top_k(scores, 2);
  EXPECT_EQ(distributed.estimate, centralized.estimate);
  EXPECT_EQ(distributed.estimate, (BitVector{1, 1, 0, 0, 0}));
}

TEST(DistributedTopKTest, StatsAccountSortAndNotify) {
  const std::vector<double> scores{5.0, 1.0, 4.0, 2.0, 3.0, 0.0, 6.0};
  const auto r = run_distributed_topk(scores, 3);
  const SortingSchedule schedule = make_odd_even_schedule(7);
  EXPECT_EQ(r.sorting_depth, schedule.depth());
  EXPECT_EQ(r.stats.messages, 2 * schedule.comparator_count() + 7);
  EXPECT_EQ(r.stats.rounds, schedule.depth() + 2);
}

TEST(DistributedTopKTest, DegenerateKValues) {
  const std::vector<double> scores{1.0, 2.0, 3.0};
  EXPECT_EQ(run_distributed_topk(scores, 0).estimate, (BitVector{0, 0, 0}));
  EXPECT_EQ(run_distributed_topk(scores, 3).estimate, (BitVector{1, 1, 1}));
}

// -------------------------------------------------------- distributed AMP

// `design` defaults to the paper's; the sparse families exercise the
// operator's centering on designs with Γ ≪ n.
enum class AmpDesign : std::uint32_t { kPaper, kRegular6, kWr005 };

struct AmpScenario {
  Index n;
  Index k;
  Index m;
  const char* channel;
  std::uint32_t seed;
  AmpDesign design = AmpDesign::kPaper;
};

const char* design_spec(AmpDesign design) {
  switch (design) {
    case AmpDesign::kRegular6:
      return "regular:6";
    case AmpDesign::kWr005:
      return "wr:0.05";
    case AmpDesign::kPaper:
      break;
  }
  return "paper";
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class DistributedAmpTest : public ::testing::TestWithParam<AmpScenario> {};

TEST_P(DistributedAmpTest, BitIdenticalToCentralizedAmp) {
  const AmpScenario s = GetParam();
  rand::Rng rng(s.seed + 1000);
  const auto channel = make_channel(s.channel);
  const core::Instance instance = core::make_instance(
      s.n, s.k, s.m,
      solve::parse_design_spec(design_spec(s.design)).instantiate(s.n),
      *channel, rng);
  const auto lin = channel->linearization(s.n, s.k, s.n / 2);
  const amp::AmpProblem problem = amp::standardize(instance, lin);
  const amp::BayesBernoulliDenoiser denoiser(problem.pi);

  const amp::AmpResult centralized = amp::run_amp(problem, denoiser);
  ASSERT_GE(centralized.iterations, 1);
  const DistributedAmpResult distributed = run_distributed_amp(
      instance, problem, denoiser, centralized.iterations);

  ASSERT_EQ(distributed.x.size(), centralized.x.size());
  for (std::size_t i = 0; i < distributed.x.size(); ++i) {
    EXPECT_TRUE(same_bits(distributed.x[i], centralized.x[i]))
        << "agent " << i << ": " << distributed.x[i] << " vs "
        << centralized.x[i];
  }
  EXPECT_EQ(distributed.estimate, centralized.estimate);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, DistributedAmpTest,
    ::testing::Values(
        AmpScenario{64, 4, 30, "noiseless", 11},
        AmpScenario{100, 5, 60, "z", 12},
        AmpScenario{100, 5, 40, "gnc", 13},
        AmpScenario{128, 10, 50, "gauss", 14},
        AmpScenario{200, 6, 90, "z", 15},
        AmpScenario{200, 6, 70, "z", 16, AmpDesign::kRegular6},
        AmpScenario{240, 6, 90, "gauss", 17, AmpDesign::kRegular6},
        AmpScenario{200, 6, 90, "z", 18, AmpDesign::kWr005},
        AmpScenario{240, 6, 110, "gnc", 19, AmpDesign::kWr005}),
    [](const ::testing::TestParamInfo<AmpScenario>& info) {
      std::string name = info.param.channel;
      if (info.param.design == AmpDesign::kRegular6) {
        name += "_regular6";
      } else if (info.param.design == AmpDesign::kWr005) {
        name += "_wr005";
      }
      return name + "_n" + std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m);
    });

TEST(DistributedAmpCostTest, IterationTrafficIsDense) {
  rand::Rng rng(99);
  const Index n = 60;
  const Index m = 20;
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      n, 3, m, pooling::paper_design(n), *channel, rng);
  const amp::AmpProblem problem =
      amp::standardize(instance, channel->linearization(n, 3, n / 2));
  const amp::BayesBernoulliDenoiser denoiser(problem.pi);

  const Index iterations = 3;
  const auto r = run_distributed_amp(instance, problem, denoiser, iterations);
  // T query floods of m*n messages + (T-1) agent floods of n*m messages.
  EXPECT_EQ(r.iteration_stats.messages,
            iterations * m * n + (iterations - 1) * n * m);
  EXPECT_EQ(r.iteration_stats.rounds, 2 * iterations);
}

}  // namespace
}  // namespace npd::netsim
