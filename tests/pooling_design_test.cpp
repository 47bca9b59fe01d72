// Property tests for the doubly regular design family: exact degree
// invariants on both sides of the bipartite graph, bit-for-bit
// determinism of the seeded configuration-model construction (including
// under concurrent builds), distinctness from the per-query Bernoulli
// family, and the usage-error contract of `make_doubly_regular_graph`
// and `build_design_graph`.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "agent_incidence.hpp"
#include "pooling/pooling_graph.hpp"
#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "util/parallel.hpp"

namespace npd::pooling {
namespace {

rand::Rng test_rng(std::uint64_t tag = 0) { return rand::Rng(0xD0B1E9 + tag); }

// Flatten a graph to its defining per-query multisets (in sampling
// order), which together with n determine every derived structure.
std::vector<std::vector<Index>> query_lists(const PoolingGraph& g) {
  std::vector<std::vector<Index>> lists;
  lists.reserve(static_cast<std::size_t>(g.num_queries()));
  for (Index j = 0; j < g.num_queries(); ++j) {
    const auto pool = g.query_multiset(j);
    lists.emplace_back(pool.begin(), pool.end());
  }
  return lists;
}

struct RegularTriple {
  Index n;
  Index delta;
  Index m;
};

class DoublyRegularGridTest : public ::testing::TestWithParam<RegularTriple> {};

// Every agent in exactly Δ pools (with multiplicity) and — because the
// grid triples all satisfy m | n·Δ — every pool of exactly Γ = n·Δ/m
// agents.  These are exact equalities, not concentration bounds.
TEST_P(DoublyRegularGridTest, ExactRowAndColumnDegrees) {
  const RegularTriple t = GetParam();
  ASSERT_EQ((t.n * t.delta) % t.m, 0) << "grid triple must be divisible";
  const Index gamma = t.n * t.delta / t.m;

  auto rng = test_rng(static_cast<std::uint64_t>(t.n * 131 + t.m));
  const PoolingGraph g = make_doubly_regular_graph(t.n, t.m, t.delta, rng);

  EXPECT_EQ(g.num_agents(), t.n);
  EXPECT_EQ(g.num_queries(), t.m);
  EXPECT_EQ(g.num_edges(), t.n * t.delta);
  const AgentIncidence agents = agent_incidence(g);
  for (std::size_t i = 0; i < agents.delta.size(); ++i) {
    EXPECT_EQ(agents.delta[i], t.delta) << "agent " << i;
    EXPECT_LE(agents.delta_star[i], t.delta) << "agent " << i;
    EXPECT_GE(agents.delta_star[i], 1) << "agent " << i;
  }
  for (Index j = 0; j < t.m; ++j) {
    EXPECT_EQ(static_cast<Index>(g.query_multiset(j).size()), gamma)
        << "pool " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DivisibleGrid, DoublyRegularGridTest,
    ::testing::Values(RegularTriple{12, 4, 8},    // Γ = 6
                      RegularTriple{30, 6, 20},   // Γ = 9
                      RegularTriple{16, 8, 16},   // Γ = 8
                      RegularTriple{40, 3, 24},   // Γ = 5
                      RegularTriple{7, 5, 5},     // Γ = 7
                      RegularTriple{9, 2, 2}));   // Γ = 9

// When m does not divide n·Δ the stub sequence is cut as evenly as
// possible: the first (n·Δ mod m) pools get one extra agent, so pool
// sizes differ by at most one — and row degrees stay exact.
TEST(DoublyRegularTest, NonDivisiblePoolsDifferByAtMostOne) {
  const Index n = 10;
  const Index delta = 3;
  const Index m = 4;  // n·Δ = 30 = 4·7 + 2 → sizes {8, 8, 7, 7}
  auto rng = test_rng(42);
  const PoolingGraph g = make_doubly_regular_graph(n, m, delta, rng);

  const std::vector<Index> expected_sizes = {8, 8, 7, 7};
  for (Index j = 0; j < m; ++j) {
    EXPECT_EQ(static_cast<Index>(g.query_multiset(j).size()),
              expected_sizes[static_cast<std::size_t>(j)])
        << "pool " << j;
  }
  const AgentIncidence agents = agent_incidence(g);
  for (std::size_t i = 0; i < agents.delta.size(); ++i) {
    EXPECT_EQ(agents.delta[i], delta) << "agent " << i;
  }
}

// The construction is a pure function of (n, m, Δ, rng stream): the same
// seed reproduces the graph bit-for-bit, a different seed does not.
TEST(DoublyRegularTest, FixedSeedReproducesGraphExactly) {
  auto rng_a = test_rng(7);
  auto rng_b = test_rng(7);
  auto rng_c = test_rng(8);
  const PoolingGraph a = make_doubly_regular_graph(30, 20, 6, rng_a);
  const PoolingGraph b = make_doubly_regular_graph(30, 20, 6, rng_b);
  const PoolingGraph c = make_doubly_regular_graph(30, 20, 6, rng_c);

  EXPECT_EQ(query_lists(a), query_lists(b));
  EXPECT_NE(query_lists(a), query_lists(c));
}

// Determinism must survive concurrency: building the same seeded graphs
// from a parallel_for over several threads yields the same bytes as the
// sequential loop (each build owns its Rng, nothing is shared).
TEST(DoublyRegularTest, ConcurrentBuildsMatchSequentialBuilds) {
  constexpr Index kBuilds = 12;
  std::vector<std::vector<std::vector<Index>>> sequential(kBuilds);
  for (Index b = 0; b < kBuilds; ++b) {
    auto rng = test_rng(100 + static_cast<std::uint64_t>(b));
    sequential[static_cast<std::size_t>(b)] =
        query_lists(make_doubly_regular_graph(24, 18, 6, rng));
  }
  for (const Index threads : {Index{1}, Index{4}}) {
    std::vector<std::vector<std::vector<Index>>> parallel(kBuilds);
    npd::parallel_for(kBuilds, threads, [&](Index b) {
      auto rng = test_rng(100 + static_cast<std::uint64_t>(b));
      parallel[static_cast<std::size_t>(b)] =
          query_lists(make_doubly_regular_graph(24, 18, 6, rng));
    });
    EXPECT_EQ(parallel, sequential) << "threads = " << threads;
  }
}

// The doubly regular family consumes a different RNG stream shape than
// any per-query sampler and produces structurally different graphs: the
// Bernoulli family's row degrees fluctuate (binomial), the regular
// family's are constant.
TEST(DoublyRegularTest, DistinctFromBernoulliFamilyStream) {
  const Index n = 60;
  const Index m = 30;
  const Index delta = 5;  // Γ = 10 = fraction 1/6 of n

  auto rng_regular = test_rng(9);
  const PoolingGraph regular = make_doubly_regular_graph(n, m, delta, rng_regular);

  auto rng_bernoulli = test_rng(9);
  const QueryDesign bernoulli =
      fractional_design(n, 1.0 / 6.0, SamplingMode::Bernoulli);
  const PoolingGraph loose = make_pooling_graph(n, m, bernoulli, rng_bernoulli);

  // Same seed, different family → different graphs.
  EXPECT_NE(query_lists(regular), query_lists(loose));

  const std::vector<Index> regular_delta = agent_incidence(regular).delta;
  const std::vector<Index> bernoulli_delta = agent_incidence(loose).delta;
  const std::set<Index> regular_degrees(regular_delta.begin(),
                                        regular_delta.end());
  const std::set<Index> bernoulli_degrees(bernoulli_delta.begin(),
                                          bernoulli_delta.end());
  EXPECT_EQ(regular_degrees.size(), 1u) << "regular rows must be constant";
  EXPECT_EQ(*regular_degrees.begin(), delta);
  EXPECT_GT(bernoulli_degrees.size(), 1u)
      << "Bernoulli rows fluctuate; a constant spectrum would mean the "
         "families collapsed onto the same construction";
}

// ------------------------------------------------------------ usage errors

TEST(DoublyRegularTest, RejectsDegenerateDelta) {
  auto rng = test_rng(10);
  try {
    (void)make_doubly_regular_graph(10, 5, 0, rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "doubly regular design: need delta >= 1");
  }
}

TEST(DoublyRegularTest, RejectsMoreQueriesThanStubs) {
  auto rng = test_rng(11);
  try {
    (void)make_doubly_regular_graph(4, 13, 3, rng);  // n·Δ = 12 < m = 13
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "doubly regular design: need m <= n*delta (more pools than "
                 "edge stubs would leave empty pools)");
  }
}

// ------------------------------------------------------- build_design_graph

TEST(BuildDesignGraphTest, PerQueryFamilyMatchesMakePoolingGraph) {
  const Index n = 40;
  const Index m = 25;
  GraphDesign design;
  design.family = DesignFamily::PerQuery;
  design.per_query = paper_design(n);

  auto rng_direct = test_rng(12);
  const PoolingGraph direct =
      make_pooling_graph(n, m, design.per_query, rng_direct);
  auto rng_via = test_rng(12);
  const PoolingGraph via = build_design_graph(n, m, design, rng_via);

  EXPECT_EQ(query_lists(direct), query_lists(via))
      << "PerQuery dispatch must consume the identical RNG stream";
}

TEST(BuildDesignGraphTest, DoublyRegularFamilyMatchesDirectConstruction) {
  GraphDesign design;
  design.family = DesignFamily::DoublyRegular;
  design.delta = 4;

  auto rng_direct = test_rng(13);
  const PoolingGraph direct = make_doubly_regular_graph(18, 12, 4, rng_direct);
  auto rng_via = test_rng(13);
  const PoolingGraph via = build_design_graph(18, 12, design, rng_via);

  EXPECT_EQ(query_lists(direct), query_lists(via));
}

}  // namespace
}  // namespace npd::pooling
