// Unit tests for src/pooling: ground truth, query designs, and the
// structural invariants of the bipartite pooling multigraph.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agent_incidence.hpp"
#include "core/instance.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/pooling_graph.hpp"
#include "pooling/query_design.hpp"
#include "rand/distributions.hpp"
#include "solve/design_spec.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace npd::pooling {
namespace {

rand::Rng test_rng(std::uint64_t tag = 0) { return rand::Rng(0xBADC0FFEE + tag); }

// ----------------------------------------------------------- ground truth

TEST(GroundTruthTest, ExactlyKOnes) {
  auto rng = test_rng();
  const GroundTruth truth = make_ground_truth(100, 17, rng);
  EXPECT_EQ(truth.n(), 100);
  EXPECT_EQ(truth.k(), 17);
  Index ones = 0;
  for (const Bit b : truth.bits) {
    ones += b;
  }
  EXPECT_EQ(ones, 17);
}

TEST(GroundTruthTest, OnesListMatchesBits) {
  auto rng = test_rng(1);
  const GroundTruth truth = make_ground_truth(50, 9, rng);
  EXPECT_TRUE(std::is_sorted(truth.ones.begin(), truth.ones.end()));
  for (const Index i : truth.ones) {
    EXPECT_EQ(truth.bits[static_cast<std::size_t>(i)], 1);
  }
}

TEST(GroundTruthTest, DegenerateZeroAndFull) {
  auto rng = test_rng(2);
  const GroundTruth none = make_ground_truth(10, 0, rng);
  EXPECT_TRUE(none.ones.empty());
  const GroundTruth all = make_ground_truth(10, 10, rng);
  EXPECT_EQ(all.k(), 10);
}

TEST(GroundTruthTest, RejectsBadK) {
  auto rng = test_rng(3);
  EXPECT_THROW((void)make_ground_truth(10, 11, rng), ContractViolation);
  EXPECT_THROW((void)make_ground_truth(10, -1, rng), ContractViolation);
  EXPECT_THROW((void)make_ground_truth(0, 0, rng), ContractViolation);
}

TEST(GroundTruthTest, UniformOverSupport) {
  // Every agent is a one with probability k/n.
  auto rng = test_rng(4);
  const int trials = 5000;
  std::vector<int> counts(20, 0);
  for (int t = 0; t < trials; ++t) {
    const GroundTruth truth = make_ground_truth(20, 5, rng);
    for (const Index i : truth.ones) {
      ++counts[static_cast<std::size_t>(i)];
    }
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.25, 0.035);
  }
}

TEST(RegimeTest, SublinearKMatchesPower) {
  EXPECT_EQ(sublinear_k(10000, 0.25), 10);   // 10000^0.25 = 10
  EXPECT_EQ(sublinear_k(100000, 0.25), 18);  // ≈ 17.78
  EXPECT_EQ(sublinear_k(100, 0.5), 10);
}

TEST(RegimeTest, SublinearKClampedToAtLeastOne) {
  EXPECT_GE(sublinear_k(2, 0.1), 1);
}

TEST(RegimeTest, LinearKMatchesFraction) {
  EXPECT_EQ(linear_k(1000, 0.1), 100);
  EXPECT_EQ(linear_k(1000, 0.05), 50);
}

TEST(RegimeTest, RejectsBadParameters) {
  EXPECT_THROW((void)sublinear_k(100, 0.0), ContractViolation);
  EXPECT_THROW((void)sublinear_k(100, 1.0), ContractViolation);
  EXPECT_THROW((void)linear_k(100, 0.0), ContractViolation);
  EXPECT_THROW((void)linear_k(100, 1.0), ContractViolation);
}

// ---------------------------------------------------------- query design

TEST(QueryDesignTest, PaperDesignIsHalfWithReplacement) {
  const QueryDesign d = paper_design(1000);
  EXPECT_EQ(d.gamma, 500);
  EXPECT_EQ(d.mode, SamplingMode::WithReplacement);
}

TEST(QueryDesignTest, FractionalDesignRounds) {
  const QueryDesign d =
      fractional_design(1000, 0.3, SamplingMode::WithoutReplacement);
  EXPECT_EQ(d.gamma, 300);
  EXPECT_EQ(d.mode, SamplingMode::WithoutReplacement);
}

// Degenerate design parameters are usage errors with pinned messages —
// a fraction that rounds to an empty pool must never silently become a
// different design.
TEST(QueryDesignTest, PaperDesignRejectsTinyN) {
  try {
    (void)paper_design(1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "paper design: need n >= 2");
  }
}

TEST(QueryDesignTest, FractionalDesignRejectsTinyN) {
  try {
    (void)fractional_design(1, 0.5, SamplingMode::WithReplacement);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "fractional design: need n >= 2");
  }
}

TEST(QueryDesignTest, FractionalDesignRejectsFractionOutOfRange) {
  for (const double fraction : {0.0, -0.25, 1.5}) {
    try {
      (void)fractional_design(100, fraction, SamplingMode::WithReplacement);
      FAIL() << "expected std::invalid_argument for fraction " << fraction;
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(),
                   "fractional design: pool fraction must lie in (0, 1]");
    }
  }
}

TEST(QueryDesignTest, FractionalDesignRejectsEmptyPoolRounding) {
  try {
    (void)fractional_design(10, 0.001, SamplingMode::WithReplacement);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "fractional design: pool fraction rounds to an empty pool "
                 "(gamma = 0)");
  }
}

TEST(QueryDesignTest, FractionalDesignAcceptsSmallestNondegenerateFraction) {
  // The smallest fraction that still rounds to Γ >= 1 stays a valid design.
  const QueryDesign d =
      fractional_design(10, 0.05, SamplingMode::WithReplacement);
  EXPECT_EQ(d.gamma, 1);
}

TEST(QueryDesignTest, SampleQuerySizeIsGamma) {
  auto rng = test_rng(5);
  const QueryDesign d = paper_design(100);
  const auto q = sample_query(d, 100, rng);
  EXPECT_EQ(static_cast<Index>(q.size()), d.gamma);
}

TEST(QueryDesignTest, WithoutReplacementHasNoDuplicates) {
  auto rng = test_rng(6);
  const QueryDesign d = fractional_design(60, 0.5, SamplingMode::WithoutReplacement);
  const auto q = sample_query(d, 60, rng);
  std::set<Index> unique(q.begin(), q.end());
  EXPECT_EQ(unique.size(), q.size());
}

TEST(QueryDesignTest, WithReplacementHasDuplicatesWhp) {
  auto rng = test_rng(7);
  const QueryDesign d = paper_design(100);  // 50 draws from 100
  int with_dup = 0;
  for (int t = 0; t < 50; ++t) {
    const auto q = sample_query(d, 100, rng);
    std::set<Index> unique(q.begin(), q.end());
    if (unique.size() < q.size()) {
      ++with_dup;
    }
  }
  EXPECT_GT(with_dup, 45);  // collision probability is ≈ 1
}

TEST(QueryDesignTest, BernoulliPoolSizeConcentrates) {
  auto rng = test_rng(20);
  const QueryDesign d = fractional_design(400, 0.5, SamplingMode::Bernoulli);
  double total = 0.0;
  for (int t = 0; t < 200; ++t) {
    const auto q = sample_query(d, 400, rng);
    std::set<Index> unique(q.begin(), q.end());
    EXPECT_EQ(unique.size(), q.size()) << "Bernoulli pools must be simple";
    total += static_cast<double>(q.size());
  }
  // E[size] = 200; std of the mean over 200 trials ~ 0.7.
  EXPECT_NEAR(total / 200.0, 200.0, 4.0);
}

TEST(QueryDesignTest, BernoulliNeverEmpty) {
  auto rng = test_rng(21);
  const QueryDesign d = fractional_design(50, 0.02, SamplingMode::Bernoulli);
  for (int t = 0; t < 300; ++t) {
    EXPECT_GE(sample_query(d, 50, rng).size(), 1u);
  }
}

TEST(QueryDesignTest, BernoulliAgentsSorted) {
  auto rng = test_rng(22);
  const QueryDesign d = fractional_design(100, 0.3, SamplingMode::Bernoulli);
  const auto q = sample_query(d, 100, rng);
  EXPECT_TRUE(std::is_sorted(q.begin(), q.end()));
}

// ---------------------------------------------------------------- graph

TEST(PoolingGraphTest, BuilderCountsQueries) {
  PoolingGraphBuilder builder(10);
  EXPECT_EQ(builder.num_queries_so_far(), 0);
  const std::vector<Index> q{0, 1, 2};
  EXPECT_EQ(builder.add_query(q), 0);
  EXPECT_EQ(builder.add_query(q), 1);
  EXPECT_EQ(builder.num_queries_so_far(), 2);
}

TEST(PoolingGraphTest, MultisetRoundTrips) {
  PoolingGraphBuilder builder(10);
  const std::vector<Index> q{3, 1, 3, 7, 1, 1};
  (void)builder.add_query(q);
  const PoolingGraph g = builder.build();
  const auto multiset = g.query_multiset(0);
  EXPECT_TRUE(std::equal(multiset.begin(), multiset.end(), q.begin(), q.end()));
}

TEST(PoolingGraphTest, DistinctAndMultiplicity) {
  PoolingGraphBuilder builder(10);
  (void)builder.add_query(std::vector<Index>{3, 1, 3, 7, 1, 1});
  const PoolingGraph g = builder.build();

  const auto distinct = g.query_distinct(0);
  const auto counts = g.query_multiplicity(0);
  ASSERT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct[0], 1);
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(distinct[1], 3);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(distinct[2], 7);
  EXPECT_EQ(counts[2], 1);
}

TEST(PoolingGraphTest, DegreesAccumulateAcrossQueries) {
  PoolingGraphBuilder builder(5);
  (void)builder.add_query(std::vector<Index>{0, 0, 1});
  (void)builder.add_query(std::vector<Index>{0, 2});
  const AgentIncidence g = agent_incidence(builder.build());

  EXPECT_EQ(g.delta[0], 3);       // sampled 2 + 1 times
  EXPECT_EQ(g.delta_star[0], 2);  // in 2 distinct queries
  EXPECT_EQ(g.delta[1], 1);
  EXPECT_EQ(g.delta_star[1], 1);
  EXPECT_EQ(g.delta[3], 0);
  EXPECT_EQ(g.delta_star[3], 0);
}

TEST(PoolingGraphTest, AgentQueriesIsTransposeOfQueryDistinct) {
  auto rng = test_rng(8);
  const PoolingGraph g = make_pooling_graph(40, 25, paper_design(40), rng);
  const AgentIncidence agents = agent_incidence(g);

  for (Index i = 0; i < g.num_agents(); ++i) {
    for (const Index j : agents.queries[static_cast<std::size_t>(i)]) {
      const auto distinct = g.query_distinct(j);
      EXPECT_TRUE(std::binary_search(distinct.begin(), distinct.end(), i));
    }
  }
  Index total_agent_side = 0;
  for (Index i = 0; i < g.num_agents(); ++i) {
    const auto& queries = agents.queries[static_cast<std::size_t>(i)];
    total_agent_side += agents.delta_star[static_cast<std::size_t>(i)];
    EXPECT_TRUE(std::is_sorted(queries.begin(), queries.end()));
  }
  Index total_query_side = 0;
  for (Index j = 0; j < g.num_queries(); ++j) {
    total_query_side += static_cast<Index>(g.query_distinct(j).size());
  }
  EXPECT_EQ(total_agent_side, total_query_side);
}

TEST(PoolingGraphTest, EdgeCountIsMGamma) {
  auto rng = test_rng(9);
  const QueryDesign d = paper_design(50);
  const PoolingGraph g = make_pooling_graph(50, 12, d, rng);
  EXPECT_EQ(g.num_edges(), 12 * d.gamma);

  Index delta_sum = 0;
  for (const Index delta : agent_incidence(g).delta) {
    delta_sum += delta;
  }
  EXPECT_EQ(delta_sum, g.num_edges());
}

TEST(PoolingGraphTest, DeltaStarNeverExceedsDelta) {
  auto rng = test_rng(10);
  const PoolingGraph g = make_pooling_graph(60, 30, paper_design(60), rng);
  const AgentIncidence agents = agent_incidence(g);
  for (std::size_t i = 0; i < agents.delta.size(); ++i) {
    EXPECT_LE(agents.delta_star[i], agents.delta[i]);
    EXPECT_LE(agents.delta_star[i], g.num_queries());
  }
}

TEST(PoolingGraphTest, MultiplicityLookup) {
  PoolingGraphBuilder builder(6);
  (void)builder.add_query(std::vector<Index>{2, 2, 5});
  const PoolingGraph g = builder.build();
  EXPECT_EQ(g.multiplicity(0, 2), 2);
  EXPECT_EQ(g.multiplicity(0, 5), 1);
  EXPECT_EQ(g.multiplicity(0, 0), 0);
}

TEST(PoolingGraphTest, BuilderRejectsBadAgents) {
  PoolingGraphBuilder builder(4);
  EXPECT_THROW((void)builder.add_query(std::vector<Index>{4}),
               ContractViolation);
  EXPECT_THROW((void)builder.add_query(std::vector<Index>{-1}),
               ContractViolation);
  EXPECT_THROW((void)builder.add_query(std::vector<Index>{}),
               ContractViolation);
}

TEST(PoolingGraphTest, BuilderIsReusableAfterBuild) {
  PoolingGraphBuilder builder(5);
  (void)builder.add_query(std::vector<Index>{0, 1});
  const PoolingGraph first = builder.build();
  EXPECT_EQ(first.num_queries(), 1);
  EXPECT_EQ(builder.num_queries_so_far(), 0);
  (void)builder.add_query(std::vector<Index>{2, 3});
  (void)builder.add_query(std::vector<Index>{4, 4});
  const PoolingGraph second = builder.build();
  EXPECT_EQ(second.num_queries(), 2);
  EXPECT_EQ(agent_incidence(second).delta[4], 2);
}

TEST(PoolingGraphTest, IncrementalEqualsBatch) {
  // Adding queries one by one (the paper's protocol) must produce the same
  // graph as the batch constructor under the same random stream.
  auto rng1 = test_rng(11);
  auto rng2 = test_rng(11);
  const QueryDesign d = paper_design(30);

  const PoolingGraph batch = make_pooling_graph(30, 8, d, rng1);
  PoolingGraphBuilder builder(30);
  for (int j = 0; j < 8; ++j) {
    (void)builder.add_query(sample_query(d, 30, rng2));
  }
  const PoolingGraph inc = builder.build();

  ASSERT_EQ(batch.num_queries(), inc.num_queries());
  for (Index j = 0; j < batch.num_queries(); ++j) {
    const auto a = batch.query_multiset(j);
    const auto b = inc.query_multiset(j);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

// ------------------------------------------- deduplication vs reference
//
// The builder deduplicates each query without sorting it (a counting
// pass plus either a scan over all n agents or a sort of the distinct
// agents).  These tests pin every derived array against a tiny
// sort-and-run-length reference built from the query multisets alone.

struct FlatGraph {
  std::vector<std::vector<Index>> multisets;
  std::vector<std::vector<Index>> distinct;
  std::vector<std::vector<Index>> multiplicity;
  std::vector<Index> delta;
  std::vector<Index> delta_star;
  std::vector<std::vector<Index>> agent_queries;
};

FlatGraph flatten(const PoolingGraph& g) {
  FlatGraph flat;
  for (Index j = 0; j < g.num_queries(); ++j) {
    const auto pool = g.query_multiset(j);
    const auto distinct = g.query_distinct(j);
    const auto counts = g.query_multiplicity(j);
    flat.multisets.emplace_back(pool.begin(), pool.end());
    flat.distinct.emplace_back(distinct.begin(), distinct.end());
    flat.multiplicity.emplace_back(counts.begin(), counts.end());
  }
  AgentIncidence agents = agent_incidence(g);
  flat.delta = std::move(agents.delta);
  flat.delta_star = std::move(agents.delta_star);
  flat.agent_queries = std::move(agents.queries);
  return flat;
}

FlatGraph reference_graph(Index n,
                          const std::vector<std::vector<Index>>& multisets) {
  FlatGraph ref;
  ref.multisets = multisets;
  ref.delta.assign(static_cast<std::size_t>(n), 0);
  ref.delta_star.assign(static_cast<std::size_t>(n), 0);
  ref.agent_queries.resize(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < multisets.size(); ++j) {
    std::vector<Index> sorted = multisets[j];
    std::sort(sorted.begin(), sorted.end());
    ref.distinct.emplace_back();
    ref.multiplicity.emplace_back();
    for (std::size_t lo = 0; lo < sorted.size();) {
      std::size_t hi = lo;
      while (hi < sorted.size() && sorted[hi] == sorted[lo]) {
        ++hi;
      }
      const auto agent = static_cast<std::size_t>(sorted[lo]);
      ref.distinct.back().push_back(sorted[lo]);
      ref.multiplicity.back().push_back(static_cast<Index>(hi - lo));
      ref.delta[agent] += static_cast<Index>(hi - lo);
      ++ref.delta_star[agent];
      ref.agent_queries[agent].push_back(static_cast<Index>(j));
      lo = hi;
    }
  }
  return ref;
}

void expect_equal(const FlatGraph& got, const FlatGraph& want,
                  const std::string& context) {
  EXPECT_EQ(got.multisets, want.multisets) << context;
  EXPECT_EQ(got.distinct, want.distinct) << context;
  EXPECT_EQ(got.multiplicity, want.multiplicity) << context;
  EXPECT_EQ(got.delta, want.delta) << context;
  EXPECT_EQ(got.delta_star, want.delta_star) << context;
  EXPECT_EQ(got.agent_queries, want.agent_queries) << context;
}

// A rejected query must leave no trace: the builder that saw it and
// one that never did produce the same graph from the same later queries.
TEST(PoolingGraphTest, RejectedQueryLeavesBuilderUnchanged) {
  const std::vector<std::vector<Index>> rejected{{0, 9}, {1, -1}, {4}, {}};
  for (const auto& bad : rejected) {
    PoolingGraphBuilder clean(4);
    PoolingGraphBuilder dirty(4);
    (void)clean.add_query(std::vector<Index>{3, 3, 0});
    (void)dirty.add_query(std::vector<Index>{3, 3, 0});
    EXPECT_THROW((void)dirty.add_query(bad), ContractViolation);
    EXPECT_EQ(dirty.num_queries_so_far(), 1);
    EXPECT_EQ(clean.add_query(std::vector<Index>{1, 2}),
              dirty.add_query(std::vector<Index>{1, 2}));
    expect_equal(flatten(dirty.build()), flatten(clean.build()),
                 "after rejecting a query of size " +
                     std::to_string(bad.size()));
  }
}

// Random multisets of every size Γ from 1 to 2n (a sample of sizes at
// n = 1000), interleaved in one builder so the dense-scan and sparse-sort
// paths run back to back on the same counters.
TEST(PoolingGraphDedupTest, RandomQueriesMatchSortReference) {
  auto rng = test_rng(30);
  for (const Index n : {Index{1}, Index{7}, Index{1000}}) {
    std::vector<Index> gammas{1, 2, 5, 17, 60, 124, 125, 126, 134, 140,
                              500, 999, 1000, 2000};
    if (n < 1000) {
      gammas.assign(static_cast<std::size_t>(2 * n), 0);
      std::iota(gammas.begin(), gammas.end(), Index{1});
    }
    PoolingGraphBuilder builder(n);
    std::vector<std::vector<Index>> multisets;
    multisets.reserve(gammas.size() * 3);
    for (const Index gamma : gammas) {
      for (int rep = 0; rep < 3; ++rep) {
        multisets.push_back(rand::sample_with_replacement(rng, n, gamma));
        (void)builder.add_query(multisets.back());
      }
    }
    expect_equal(flatten(builder.build()), reference_graph(n, multisets),
                 "n = " + std::to_string(n));
  }
}

// Queries with exactly 124, 125 and 126 distinct agents at n = 1000:
// 125·8 == n is the first size that takes the dense scan.
TEST(PoolingGraphDedupTest, DistinctCountAtScanThreshold) {
  const Index n = 1000;
  auto rng = test_rng(31);
  PoolingGraphBuilder builder(n);
  std::vector<std::vector<Index>> multisets;
  multisets.reserve(4);
  for (const Index distinct : {Index{124}, Index{125}, Index{126}, Index{125}}) {
    std::vector<Index> pool = rand::sample_without_replacement(rng, n, distinct);
    pool.reserve(pool.size() + static_cast<std::size_t>(distinct / 3));
    // Repeat a few agents so multiplicities above one are exercised too.
    for (Index r = 0; r < distinct / 3; ++r) {
      pool.push_back(pool[static_cast<std::size_t>(
          rng.uniform_index(distinct))]);
    }
    rand::shuffle(rng, pool);
    multisets.push_back(pool);
    (void)builder.add_query(pool);
  }
  const FlatGraph got = flatten(builder.build());
  for (std::size_t j = 0; j < got.distinct.size(); ++j) {
    EXPECT_EQ(got.distinct[j].size() * 8 >= static_cast<std::size_t>(n),
              j != 0)
        << "query " << j << " is on the wrong side of the threshold";
  }
  expect_equal(got, reference_graph(n, multisets), "threshold");
}

// Every `design=` family builds the graph the reference predicts, from
// the same seeded multisets the family's sampler draws.
TEST(PoolingGraphDedupTest, EveryDesignFamilyMatchesReference) {
  const Index n = 200;
  const Index m = 80;  // regular:6 pools of 15: the sparse path
  for (const char* spec :
       {"paper", "wr:0.05", "wr:0.3", "wor:0.25", "bernoulli:0.1", "regular:6"}) {
    const GraphDesign design = solve::parse_design_spec(spec).instantiate(n);
    auto rng = test_rng(32);
    const FlatGraph got = flatten(build_design_graph(n, m, design, rng));

    // Replay the family's draws from the same seed.
    auto replay = test_rng(32);
    std::vector<std::vector<Index>> multisets;
    multisets.reserve(static_cast<std::size_t>(m));
    if (design.family == DesignFamily::PerQuery) {
      for (Index j = 0; j < m; ++j) {
        multisets.push_back(sample_query(design.per_query, n, replay));
      }
    } else {
      std::vector<Index> stubs;
      for (Index agent = 0; agent < n; ++agent) {
        stubs.insert(stubs.end(), static_cast<std::size_t>(design.delta),
                     agent);
      }
      rand::shuffle(replay, stubs);
      const auto pool = static_cast<std::size_t>(n * design.delta / m);
      ASSERT_EQ(stubs.size(), pool * static_cast<std::size_t>(m));
      for (std::size_t lo = 0; lo < stubs.size(); lo += pool) {
        multisets.emplace_back(stubs.begin() + static_cast<std::ptrdiff_t>(lo),
                               stubs.begin() +
                                   static_cast<std::ptrdiff_t>(lo + pool));
      }
    }
    EXPECT_EQ(replay.engine()(), rng.engine()())
        << spec << ": the build consumed a different RNG stream";
    expect_equal(got, reference_graph(n, multisets), spec);
  }
}

// Builders own their counters, so concurrent builds under parallel_for
// equal sequential builds on both dedup paths.
TEST(PoolingGraphDedupTest, ConcurrentBuildsMatchSequentialBuilds) {
  constexpr Index kBuilds = 8;
  const Index n = 300;
  const auto build = [&](Index b) {
    GraphDesign design;
    if (b % 2 == 0) {
      design.per_query = paper_design(n);
    } else {
      design.family = DesignFamily::DoublyRegular;
      design.delta = 6;
    }
    auto rng = test_rng(200 + static_cast<std::uint64_t>(b));
    return flatten(build_design_graph(n, 60, design, rng));
  };
  std::vector<FlatGraph> sequential;
  sequential.reserve(kBuilds);
  for (Index b = 0; b < kBuilds; ++b) {
    sequential.push_back(build(b));
  }
  std::vector<FlatGraph> parallel(kBuilds);
  npd::parallel_for(kBuilds, 4, [&](Index b) {
    parallel[static_cast<std::size_t>(b)] = build(b);
  });
  for (Index b = 0; b < kBuilds; ++b) {
    expect_equal(parallel[static_cast<std::size_t>(b)],
                 sequential[static_cast<std::size_t>(b)],
                 "build " + std::to_string(b));
  }
}

// ------------------------------------------------------ recycled storage
//
// A dying graph parks its arrays in a per-thread slot and the next
// builder on that thread takes them over.  These tests first fill the
// slot with a large paper graph's arrays, so every later build writes
// over stale entries; the result must still match the reference.

PoolingGraph large_paper_graph() {
  auto rng = test_rng(40);
  return make_pooling_graph(1000, 600, paper_design(1000), rng);
}

// Build and destroy a large graph, leaving its arrays in the slot.
void prime_slot() { (void)large_paper_graph(); }

// `make()` run on a thread of its own, whose slot has never held arrays.
FlatGraph flatten_on_fresh_thread(const std::function<PoolingGraph()>& make) {
  FlatGraph flat;
  std::thread([&] { flat = flatten(make()); }).join();
  return flat;
}

// The reference for what `make()` builds: the sort-and-run-length
// derivation from the multisets a fresh-thread build samples.
void expect_matches_reference(const PoolingGraph& g,
                              const std::function<PoolingGraph()>& make,
                              const std::string& context) {
  expect_equal(flatten(g),
               reference_graph(g.num_agents(),
                               flatten_on_fresh_thread(make).multisets),
               context);
}

TEST(PoolingGraphTest, RecycledStorageMatchesReference) {
  const Index n = 200;
  const Index m = 70;  // regular:6 has n·Δ = 1200 = 17·70 + 10
  std::vector<std::pair<std::string, std::function<PoolingGraph()>>> makers;
  for (const char* spec :
       {"paper", "wr:0.3", "wor:0.25", "bernoulli:0.1", "regular:6"}) {
    const GraphDesign design = solve::parse_design_spec(spec).instantiate(n);
    makers.emplace_back(spec, [=] {
      auto rng = test_rng(41);
      return build_design_graph(n, m, design, rng);
    });
  }
  makers.emplace_back("ccw:5", [=] {
    auto rng = test_rng(41);
    return make_constant_column_weight_graph(n, m, 5, rng);
  });
  const auto& make = makers.front().second;
  const auto& make_other = makers.back().second;

  for (const auto& [name, maker] : makers) {
    prime_slot();
    expect_matches_reference(maker(), maker, name);
  }

  // A builder that rejected a query.
  prime_slot();
  {
    PoolingGraphBuilder builder(n);
    const std::vector<Index> first{5, 5, 199, 0};
    const std::vector<Index> second{7, 3, 7};
    (void)builder.add_query(first);
    EXPECT_THROW((void)builder.add_query(std::vector<Index>{1, n}),
                 ContractViolation);
    (void)builder.add_query(second);
    expect_equal(flatten(builder.build()), reference_graph(n, {first, second}),
                 "rejected query");
  }

  // A move assignment over a live graph parks the target's old arrays;
  // the next build takes them.
  prime_slot();
  {
    PoolingGraph target = make();
    target = make_other();
    expect_matches_reference(target, make_other, "move-assigned target");
    expect_matches_reference(make(), make, "build after move assignment");
  }

  // A copy destroyed before its source, then one destroyed after it.
  prime_slot();
  {
    const PoolingGraph source = make();
    {
      // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
      const PoolingGraph copy = source;
      expect_matches_reference(copy, make, "copy");
    }
    expect_matches_reference(source, make, "source outliving its copy");
    expect_matches_reference(make_other(), make_other, "build after copy");
  }
  prime_slot();
  {
    std::optional<PoolingGraph> source = make();
    const PoolingGraph copy = *source;
    source.reset();
    expect_matches_reference(make_other(), make_other, "build after source");
    expect_matches_reference(copy, make, "copy outliving its source");
  }

  // Built on one thread, destroyed on another whose slot is live.
  {
    std::optional<PoolingGraph> travelling;
    std::thread([&] { travelling = large_paper_graph(); }).join();
    std::thread([&] {
      expect_matches_reference(make(), make, "receiving thread");
      travelling.reset();
      expect_matches_reference(make_other(), make_other,
                               "build over another thread's arrays");
    }).join();
  }

  // A graph in a `thread_local` destroyed at thread exit: once after its
  // thread's slot is gone (the graph was constructed first), once before.
  std::thread([&] {
    thread_local PoolingGraph held;
    held = make();
    expect_matches_reference(held, make, "thread_local, slot dies first");
  }).join();
  std::thread([&] {
    prime_slot();
    thread_local PoolingGraph held;
    held = make();
    expect_matches_reference(held, make, "thread_local, graph dies first");
  }).join();
}

// A whole instance made right after a large one equals the same instance
// made on a fresh thread: recycled graph storage leaks into no result.
TEST(PoolingGraphTest, RecycledStorageLeavesInstancesUnchanged) {
  const auto channel = noise::make_bitflip_channel(0.05, 0.01);
  const auto make = [&] {
    auto rng = test_rng(42);
    return core::make_instance(200, 8, 70, paper_design(200), *channel, rng);
  };
  {
    auto rng = test_rng(43);
    (void)core::make_instance(1000, 30, 600, paper_design(1000), *channel,
                              rng);
  }
  const core::Instance recycled = make();
  std::optional<core::Instance> fresh;
  std::thread([&] { fresh = make(); }).join();
  EXPECT_EQ(recycled.truth.bits, fresh->truth.bits);
  EXPECT_EQ(recycled.results, fresh->results);
  expect_equal(flatten(recycled.graph), flatten(fresh->graph), "instance");
}

// Steady-state builds write into the previous graph's warm pages: after
// the first build, a paper graph at n = 1000, m = 600 takes a handful of
// minor page faults instead of the ~1,400 that fresh storage costs.
TEST(PoolingGraphTest, SteadyStateBuildReusesPages) {
#ifdef NPD_SANITIZED_BUILD
  GTEST_SKIP() << "sanitizer allocators quarantine freed memory";
#endif
  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    return usage.ru_minflt;
  };
  prime_slot();
  for (int build = 2; build <= 9; ++build) {
    const auto before = minor_faults();
    prime_slot();
    EXPECT_LT(minor_faults() - before, 32) << "build " << build;
  }
}

// ----------------------------------------------- constant column weight

TEST(CcwGraphTest, EveryAgentHasExactWeight) {
  auto rng = test_rng(12);
  const AgentIncidence g =
      agent_incidence(make_constant_column_weight_graph(50, 20, 5, rng));
  for (std::size_t i = 0; i < g.delta.size(); ++i) {
    EXPECT_EQ(g.delta_star[i], 5);
    EXPECT_GE(g.delta[i], 5);  // padding may add at most a few more
  }
}

TEST(CcwGraphTest, NoQueryIsEmpty) {
  auto rng = test_rng(13);
  const PoolingGraph g = make_constant_column_weight_graph(10, 40, 2, rng);
  for (Index j = 0; j < g.num_queries(); ++j) {
    EXPECT_GE(g.query_multiset(j).size(), 1u);
  }
}

TEST(CcwGraphTest, RejectsBadWeight) {
  auto rng = test_rng(14);
  EXPECT_THROW((void)make_constant_column_weight_graph(10, 5, 6, rng),
               ContractViolation);
  EXPECT_THROW((void)make_constant_column_weight_graph(10, 5, 0, rng),
               ContractViolation);
}

}  // namespace
}  // namespace npd::pooling
