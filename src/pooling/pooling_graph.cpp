#include "pooling/pooling_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "rand/distributions.hpp"
#include "util/assert.hpp"

namespace npd::pooling {

namespace {

// Lifetime of the calling thread's recycling slot.  Trivially
// destructible, so a graph dying at thread or process exit can still
// read it after the slot's own destructor has run.
enum class SlotState : unsigned char { Unborn, Live, Dead };
thread_local constinit SlotState slot_state = SlotState::Unborn;

// Row `j` of the CSR array pair (`offsets`, `values`).
std::span<const Index> csr_row(const std::vector<Index>& offsets,
                               const std::vector<Index>& values, Index j) {
  NPD_ASSERT(j >= 0 && j + 1 < static_cast<Index>(offsets.size()));
  const auto row = static_cast<std::size_t>(j);
  const auto lo = static_cast<std::size_t>(offsets[row]);
  return {values.data() + lo, static_cast<std::size_t>(offsets[row + 1]) - lo};
}

}  // namespace

std::optional<PoolingGraph::Storage>* PoolingGraph::thread_slot(
    bool create) noexcept {
  if (slot_state == SlotState::Dead ||
      (slot_state == SlotState::Unborn && !create)) {
    return nullptr;
  }
  thread_local struct Slot {
    Slot() noexcept { slot_state = SlotState::Live; }
    ~Slot() { slot_state = SlotState::Dead; }
    std::optional<Storage> storage;
  } slot;
  return &slot.storage;
}

void PoolingGraph::recycle() noexcept {
  // Keep the larger set; a moved-from or edgeless graph has none to give.
  std::optional<Storage>* const slot = thread_slot(false);
  if (slot != nullptr && s_.query_agents.capacity() >
                             (*slot ? (*slot)->query_agents.capacity() : 0)) {
    *slot = std::move(s_);
  }
}

PoolingGraph::PoolingGraph(Index n) : n_(n) {
  std::optional<Storage>* const slot = thread_slot(true);
  if (slot != nullptr && *slot) {
    s_ = *std::exchange(*slot, std::nullopt);
    s_.query_offsets.assign(1, 0);
    s_.distinct_offsets.assign(1, 0);
    s_.query_agents.clear();
    s_.distinct_agents.clear();
    s_.distinct_counts.clear();
  }
}

PoolingGraph::~PoolingGraph() { recycle(); }

PoolingGraph& PoolingGraph::operator=(PoolingGraph&& other) noexcept {
  if (this != &other) {
    recycle();
    n_ = other.n_;
    s_ = std::move(other.s_);
  }
  return *this;
}

std::span<const Index> PoolingGraph::query_multiset(Index j) const {
  return csr_row(s_.query_offsets, s_.query_agents, j);
}

std::span<const Index> PoolingGraph::query_distinct(Index j) const {
  return csr_row(s_.distinct_offsets, s_.distinct_agents, j);
}

std::span<const Index> PoolingGraph::query_multiplicity(Index j) const {
  return csr_row(s_.distinct_offsets, s_.distinct_counts, j);
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

PoolingGraphBuilder::PoolingGraphBuilder(Index n) : n_(n), graph_(n) {
  NPD_CHECK_MSG(n > 0, "graph needs at least one agent");
  count_.assign(static_cast<std::size_t>(n), 0);
}

void PoolingGraphBuilder::reserve(Index queries, Index edges) {
  NPD_CHECK(queries >= 0 && edges >= 0);
  const auto q = static_cast<std::size_t>(queries);
  const auto e = static_cast<std::size_t>(edges);
  PoolingGraph::Storage& s = graph_.s_;
  if (s.query_agents.empty() && s.query_agents.capacity() < e) {
    s = PoolingGraph::Storage{};  // free first, so the new arrays reuse it
  }
  s.query_offsets.reserve(s.query_offsets.size() + q);
  s.query_agents.reserve(s.query_agents.size() + e);
  s.distinct_offsets.reserve(s.distinct_offsets.size() + q);
  s.distinct_agents.reserve(s.distinct_agents.size() + e);
  s.distinct_counts.reserve(s.distinct_counts.size() + e);
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

  PoolingGraph::Storage& s = graph_.s_;
  s.query_agents.insert(s.query_agents.end(), sampled_agents.begin(),
                        sampled_agents.end());
  s.query_offsets.push_back(static_cast<Index>(s.query_agents.size()));

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

  // Emit (agent, multiplicity) in ascending agent order, resetting each
  // counter as it is read.  A dense query takes one branch-free scan over
  // all n counters, which needs one slack output slot for the trailing
  // zero counters; a sparse one sorts only its distinct agents.
  const std::size_t base = s.distinct_agents.size();
  const bool dense = distinct * 8 >= static_cast<std::size_t>(n_);
  s.distinct_agents.resize(base + distinct + (dense ? 1 : 0));
  s.distinct_counts.resize(base + distinct + (dense ? 1 : 0));
  Index* const agents_out = s.distinct_agents.data() + base;
  Index* const counts_out = s.distinct_counts.data() + base;
  if (dense) {
    std::size_t w = 0;
    for (Index agent = 0; agent < n_; ++agent) {
      const Index c = count[agent];
      count[agent] = 0;
      agents_out[w] = agent;
      counts_out[w] = c;
      w += static_cast<std::size_t>(c != 0);
    }
  } else {
    std::sort(seen, seen + distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
      const Index agent = seen[i];
      agents_out[i] = agent;
      counts_out[i] = count[agent];
      count[agent] = 0;
    }
  }
  s.distinct_agents.resize(base + distinct);
  s.distinct_counts.resize(base + distinct);
  s.distinct_offsets.push_back(static_cast<Index>(base + distinct));
  return static_cast<Index>(s.query_offsets.size()) - 2;
}

PoolingGraph PoolingGraphBuilder::build() {
  return std::exchange(graph_, PoolingGraph(n_));
}

PoolingGraph make_pooling_graph(Index n, Index m, const QueryDesign& design,
                                rand::Rng& rng) {
  NPD_CHECK(m >= 0);
  PoolingGraphBuilder builder(n);
  builder.reserve(m, m * design.gamma);
  std::vector<Index> sample;
  for (Index j = 0; j < m; ++j) {
    sample_query_into(design, n, rng, sample);
    (void)builder.add_query(sample);
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
