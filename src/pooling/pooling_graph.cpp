#include "pooling/pooling_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "rand/distributions.hpp"
#include "util/assert.hpp"

namespace npd::pooling {

std::span<const Index> PoolingGraph::query_multiset(Index j) const {
  NPD_ASSERT(j >= 0 && j < num_queries());
  const auto lo = static_cast<std::size_t>(query_offsets_[static_cast<std::size_t>(j)]);
  const auto hi =
      static_cast<std::size_t>(query_offsets_[static_cast<std::size_t>(j) + 1]);
  return {query_agents_.data() + lo, hi - lo};
}

std::span<const Index> PoolingGraph::query_distinct(Index j) const {
  NPD_ASSERT(j >= 0 && j < num_queries());
  const auto lo =
      static_cast<std::size_t>(distinct_offsets_[static_cast<std::size_t>(j)]);
  const auto hi =
      static_cast<std::size_t>(distinct_offsets_[static_cast<std::size_t>(j) + 1]);
  return {distinct_agents_.data() + lo, hi - lo};
}

std::span<const Index> PoolingGraph::query_multiplicity(Index j) const {
  NPD_ASSERT(j >= 0 && j < num_queries());
  const auto lo =
      static_cast<std::size_t>(distinct_offsets_[static_cast<std::size_t>(j)]);
  const auto hi =
      static_cast<std::size_t>(distinct_offsets_[static_cast<std::size_t>(j) + 1]);
  return {distinct_counts_.data() + lo, hi - lo};
}

std::span<const Index> PoolingGraph::agent_queries(Index i) const {
  NPD_ASSERT(i >= 0 && i < n_);
  const auto lo = static_cast<std::size_t>(agent_offsets_[static_cast<std::size_t>(i)]);
  const auto hi =
      static_cast<std::size_t>(agent_offsets_[static_cast<std::size_t>(i) + 1]);
  return {agent_query_ids_.data() + lo, hi - lo};
}

Index PoolingGraph::multiplicity(Index j, Index i) const {
  const auto agents = query_distinct(j);
  const auto counts = query_multiplicity(j);
  const auto it = std::lower_bound(agents.begin(), agents.end(), i);
  if (it == agents.end() || *it != i) {
    return 0;
  }
  return counts[static_cast<std::size_t>(it - agents.begin())];
}

PoolingGraphBuilder::PoolingGraphBuilder(Index n) : n_(n) {
  NPD_CHECK_MSG(n > 0, "graph needs at least one agent");
  graph_.n_ = n;
  graph_.delta_.assign(static_cast<std::size_t>(n), 0);
  count_.assign(static_cast<std::size_t>(n), 0);
}

void PoolingGraphBuilder::reserve(Index queries, Index edges) {
  NPD_CHECK(queries >= 0 && edges >= 0);
  const auto q = static_cast<std::size_t>(queries);
  const auto e = static_cast<std::size_t>(edges);
  graph_.query_offsets_.reserve(graph_.query_offsets_.size() + q);
  graph_.query_agents_.reserve(graph_.query_agents_.size() + e);
  graph_.distinct_offsets_.reserve(graph_.distinct_offsets_.size() + q);
  graph_.distinct_agents_.reserve(graph_.distinct_agents_.size() + e);
  graph_.distinct_counts_.reserve(graph_.distinct_counts_.size() + e);
}

Index PoolingGraphBuilder::add_query(std::span<const Index> sampled_agents) {
  NPD_CHECK_MSG(!sampled_agents.empty(), "query must sample at least one agent");
  // Validate the whole query before touching any state, so a rejected
  // query leaves the builder (and the all-zero counters) untouched.  One
  // unsigned compare covers both ends of [0, n).
  bool in_range = true;
  for (const Index agent : sampled_agents) {
    in_range &= static_cast<std::uint64_t>(agent) <
                static_cast<std::uint64_t>(n_);
  }
  NPD_CHECK_MSG(in_range, "agent id out of range");

  graph_.query_agents_.insert(graph_.query_agents_.end(),
                              sampled_agents.begin(), sampled_agents.end());
  graph_.query_offsets_.push_back(
      static_cast<Index>(graph_.query_agents_.size()));

  // Count multiplicities, recording each agent the first time it is seen
  // (branch-free: the slot is always written, the cursor only advances
  // on a first sighting).
  first_seen_.resize(sampled_agents.size());
  Index* const count = count_.data();
  Index* const seen = first_seen_.data();
  std::size_t distinct = 0;
  for (const Index agent : sampled_agents) {
    seen[distinct] = agent;
    distinct += static_cast<std::size_t>(count[agent]++ == 0);
  }

  // Emit (agent, multiplicity) in ascending agent order, accumulating Δ_i
  // and resetting each counter as it is read.
  const std::size_t base = graph_.distinct_agents_.size();
  Index* const delta = graph_.delta_.data();
  if (distinct * 8 >= static_cast<std::size_t>(n_)) {
    // Dense query: one branch-free scan over all n counters.  The output
    // arrays get one slack slot, written by the trailing zero counters.
    graph_.distinct_agents_.resize(base + distinct + 1);
    graph_.distinct_counts_.resize(base + distinct + 1);
    Index* const agents_out = graph_.distinct_agents_.data() + base;
    Index* const counts_out = graph_.distinct_counts_.data() + base;
    std::size_t w = 0;
    for (Index agent = 0; agent < n_; ++agent) {
      const Index c = count[agent];
      count[agent] = 0;
      delta[agent] += c;
      agents_out[w] = agent;
      counts_out[w] = c;
      w += static_cast<std::size_t>(c != 0);
    }
    graph_.distinct_agents_.pop_back();
    graph_.distinct_counts_.pop_back();
  } else {
    // Sparse query: sort only the distinct agents.
    std::sort(seen, seen + distinct);
    graph_.distinct_agents_.resize(base + distinct);
    graph_.distinct_counts_.resize(base + distinct);
    Index* const agents_out = graph_.distinct_agents_.data() + base;
    Index* const counts_out = graph_.distinct_counts_.data() + base;
    for (std::size_t i = 0; i < distinct; ++i) {
      const Index agent = seen[i];
      const Index c = count[agent];
      count[agent] = 0;
      delta[agent] += c;
      agents_out[i] = agent;
      counts_out[i] = c;
    }
  }
  graph_.distinct_offsets_.push_back(
      static_cast<Index>(graph_.distinct_agents_.size()));

  return static_cast<Index>(graph_.query_offsets_.size()) - 2;
}

Index PoolingGraphBuilder::add_random_query(const QueryDesign& design,
                                            rand::Rng& rng) {
  sample_query_into(design, n_, rng, sample_);
  return add_query(sample_);
}

Index PoolingGraphBuilder::num_queries_so_far() const {
  return static_cast<Index>(graph_.query_offsets_.size()) - 1;
}

PoolingGraph PoolingGraphBuilder::build() {
  const Index m = num_queries_so_far();
  const auto n = static_cast<std::size_t>(n_);

  // Counting pass over distinct incidences, then prefix sums, then fill —
  // the classic two-pass CSR transpose.
  std::vector<Index> counts(n, 0);
  for (Index j = 0; j < m; ++j) {
    for (const Index agent : graph_.query_distinct(j)) {
      ++counts[static_cast<std::size_t>(agent)];
    }
  }
  graph_.agent_offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    graph_.agent_offsets_[i + 1] = graph_.agent_offsets_[i] + counts[i];
  }
  graph_.agent_query_ids_.assign(
      static_cast<std::size_t>(graph_.agent_offsets_[n]), 0);
  std::vector<Index> cursor(graph_.agent_offsets_.begin(),
                            graph_.agent_offsets_.end() - 1);
  for (Index j = 0; j < m; ++j) {
    for (const Index agent : graph_.query_distinct(j)) {
      graph_.agent_query_ids_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(agent)]++)] = j;
    }
  }
  // Query ids were appended in ascending j, so each agent's list is sorted.

  PoolingGraph result = std::move(graph_);
  graph_ = PoolingGraph{};
  graph_.n_ = n_;
  graph_.delta_.assign(n, 0);
  return result;
}

PoolingGraph make_pooling_graph(Index n, Index m, const QueryDesign& design,
                                rand::Rng& rng) {
  NPD_CHECK(m >= 0);
  PoolingGraphBuilder builder(n);
  builder.reserve(m, m * design.gamma);
  for (Index j = 0; j < m; ++j) {
    (void)builder.add_random_query(design, rng);
  }
  return builder.build();
}

PoolingGraph make_constant_column_weight_graph(Index n, Index m,
                                               Index column_weight,
                                               rand::Rng& rng) {
  NPD_CHECK(n > 0);
  NPD_CHECK(m > 0);
  NPD_CHECK_MSG(column_weight > 0 && column_weight <= m,
                "column weight must lie in [1, m]");

  // Each agent joins `column_weight` distinct queries chosen uniformly.
  std::vector<std::vector<Index>> per_query(static_cast<std::size_t>(m));
  for (Index i = 0; i < n; ++i) {
    const auto queries = rand::sample_without_replacement(rng, m, column_weight);
    for (const Index j : queries) {
      per_query[static_cast<std::size_t>(j)].push_back(i);
    }
  }

  PoolingGraphBuilder builder(n);
  builder.reserve(m, n * column_weight + m);
  for (Index j = 0; j < m; ++j) {
    auto& agents = per_query[static_cast<std::size_t>(j)];
    if (agents.empty()) {
      // Guarantee nonempty queries so downstream code never divides by a
      // zero pool size: assign one uniform agent (negligible perturbation).
      agents.push_back(rng.uniform_index(n));
    }
    (void)builder.add_query(agents);
  }
  return builder.build();
}

PoolingGraph make_doubly_regular_graph(Index n, Index m, Index delta,
                                       rand::Rng& rng) {
  NPD_CHECK(n > 0);
  NPD_CHECK(m > 0);
  // Degenerate parameters are user-reachable through `design=` specs, so
  // they must be clean usage errors rather than contract violations.
  if (delta < 1) {
    throw std::invalid_argument("doubly regular design: need delta >= 1");
  }
  if (m > n * delta) {
    throw std::invalid_argument(
        "doubly regular design: need m <= n*delta (more pools than edge "
        "stubs would leave empty pools)");
  }

  // Every agent contributes exactly Δ stubs; the shuffled stub sequence
  // cut into consecutive pools is the configuration model.
  std::vector<Index> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(delta));
  for (Index agent = 0; agent < n; ++agent) {
    for (Index d = 0; d < delta; ++d) {
      stubs.push_back(agent);
    }
  }
  rand::shuffle(rng, stubs);

  const Index edges = n * delta;
  const Index gamma = edges / m;
  const Index extra = edges % m;
  PoolingGraphBuilder builder(n);
  builder.reserve(m, edges);
  std::size_t cursor = 0;
  for (Index j = 0; j < m; ++j) {
    const auto size =
        static_cast<std::size_t>(gamma + (j < extra ? 1 : 0));
    (void)builder.add_query(
        std::span<const Index>(stubs.data() + cursor, size));
    cursor += size;
  }
  return builder.build();
}

PoolingGraph build_design_graph(Index n, Index m, const GraphDesign& design,
                                rand::Rng& rng) {
  switch (design.family) {
    case DesignFamily::PerQuery:
      return make_pooling_graph(n, m, design.per_query, rng);
    case DesignFamily::DoublyRegular:
      return make_doubly_regular_graph(n, m, design.delta, rng);
  }
  NPD_CHECK_MSG(false, "unreachable: unknown design family");
  return {};
}

}  // namespace npd::pooling
