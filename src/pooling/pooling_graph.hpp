#pragma once

/// \file pooling_graph.hpp
/// The random bipartite pooling **multigraph** G (Section II, Figure 1).
///
/// One side holds the `n` agents, the other the `m` query nodes.  An edge
/// means "agent x is measured by query a"; because agents are sampled with
/// replacement, parallel edges occur and matter: the noisy channel flips
/// every *edge* independently, and an agent's own bit enters its
/// neighborhood sum Δ_i times (its edge multiplicity) but each query result
/// is forwarded to the agent only once (distinct neighborhoods Δ*_i).
///
/// The graph is stored CSR-style in both directions:
///   * per query: the sampled multiset (Γ entries) plus the deduplicated
///     (distinct agent, multiplicity) list,
///   * per agent: the list of distinct incident queries.
/// Degrees Δ_i (with multiplicity) and Δ*_i (distinct) are precomputed —
/// they are exactly the quantities of Lemmas 3 and 4.
///
/// Construction cost.  `PoolingGraphBuilder::add_query` deduplicates a
/// query of Γ draws with Γ* distinct agents in O(Γ + min(n, Γ* log Γ*))
/// time and no allocation once the builder's buffers have grown: it
/// counts multiplicities into a per-builder array of n counters, then
/// emits the distinct agents in ascending order either by one scan over
/// all n counters (when Γ*·8 ≥ n, e.g. the paper's Γ = n/2) or by sorting
/// the short list of first-seen agents (sparse designs, Γ* ≪ n).  The
/// choice depends on the query alone.  Invariant: every counter is zero
/// between calls — a query is validated in full before any state
/// changes, and each counter is reset as the emission pass reads it.

#include <span>
#include <vector>

#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "util/types.hpp"

namespace npd::pooling {

class PoolingGraphBuilder;

/// Immutable bipartite multigraph between agents and queries.
class PoolingGraph {
 public:
  /// Default state: empty graph with zero agents (placeholder before a
  /// builder-produced graph is moved in).
  PoolingGraph() = default;

  [[nodiscard]] Index num_agents() const { return n_; }
  [[nodiscard]] Index num_queries() const {
    return static_cast<Index>(query_offsets_.size()) - 1;
  }
  /// Total number of edges counted with multiplicity (= Σ_j |∂a_j| = m·Γ
  /// for the paper's fixed-size design).
  [[nodiscard]] Index num_edges() const {
    return static_cast<Index>(query_agents_.size());
  }

  /// The sampled multiset ∂a_j of query `j` (length Γ_j, duplicates
  /// possible, in sampling order).
  [[nodiscard]] std::span<const Index> query_multiset(Index j) const;

  /// Distinct agents ∂*a_j of query `j`, sorted ascending.
  [[nodiscard]] std::span<const Index> query_distinct(Index j) const;

  /// Multiplicities parallel to `query_distinct(j)`.
  [[nodiscard]] std::span<const Index> query_multiplicity(Index j) const;

  /// Distinct queries ∂*x_i incident to agent `i`, ascending.
  [[nodiscard]] std::span<const Index> agent_queries(Index i) const;

  /// Δ_i: number of times agent `i` was sampled, over all queries.
  [[nodiscard]] Index delta(Index i) const {
    return delta_[static_cast<std::size_t>(i)];
  }

  /// Δ*_i: number of distinct queries containing agent `i`.
  [[nodiscard]] Index delta_star(Index i) const {
    return agent_offsets_[static_cast<std::size_t>(i) + 1] -
           agent_offsets_[static_cast<std::size_t>(i)];
  }

  /// Multiplicity of agent `i` in query `j` (0 if absent).  O(log Γ*).
  [[nodiscard]] Index multiplicity(Index j, Index i) const;

 private:
  friend class PoolingGraphBuilder;

  Index n_ = 0;
  // Query -> sampled multiset (CSR).
  std::vector<Index> query_offsets_{0};
  std::vector<Index> query_agents_;
  // Query -> (distinct agent, multiplicity) (CSR).
  std::vector<Index> distinct_offsets_{0};
  std::vector<Index> distinct_agents_;
  std::vector<Index> distinct_counts_;
  // Agent -> distinct queries (CSR) and multiplicity degree.
  std::vector<Index> agent_offsets_;
  std::vector<Index> agent_query_ids_;
  std::vector<Index> delta_;
};

/// Incremental builder: queries are added one at a time — exactly the
/// paper's measurement protocol ("we simulate one query node after the
/// other in a sequential manner").
class PoolingGraphBuilder {
 public:
  explicit PoolingGraphBuilder(Index n);

  /// Reserve storage for `queries` more queries holding about `edges`
  /// more sampled entries, so a graph of known shape is built without
  /// regrowing its arrays.
  void reserve(Index queries, Index edges);

  /// Append one query given its sampled multiset; returns the query id.
  /// Throws `ContractViolation` for an empty query or an agent id outside
  /// [0, n); a rejected query leaves the builder unchanged.
  Index add_query(std::span<const Index> sampled_agents);

  /// Sample and append one query using `design`; returns the query id.
  Index add_random_query(const QueryDesign& design, rand::Rng& rng);

  [[nodiscard]] Index num_queries_so_far() const;

  /// Freeze into an immutable graph (builds the agent-side CSR).
  /// The builder is left empty afterwards.
  [[nodiscard]] PoolingGraph build();

 private:
  Index n_;
  PoolingGraph graph_;
  // Per-agent multiplicity counters of the query being added; all zero
  // between calls.
  std::vector<Index> count_;
  // Distinct agents of the query being added, in first-seen order.
  std::vector<Index> first_seen_;
  // Reused sample buffer of `add_random_query`.
  std::vector<Index> sample_;
};

/// Convenience: the full random graph of the paper's model — `m` queries,
/// each drawn by `design`.
[[nodiscard]] PoolingGraph make_pooling_graph(Index n, Index m,
                                              const QueryDesign& design,
                                              rand::Rng& rng);

/// Ablation design: a constant-column-weight graph where every *agent*
/// joins exactly `column_weight` distinct queries chosen uniformly
/// (near-constant tests-per-item designs, cf. [4, 33] in the paper).
[[nodiscard]] PoolingGraph make_constant_column_weight_graph(Index n, Index m,
                                                             Index column_weight,
                                                             rand::Rng& rng);

/// Doubly regular configuration model (Hahn-Klimroth–Kaaser–Rau):
/// every agent has degree exactly `delta` (counted with multiplicity)
/// and the n·Δ edge stubs are dealt to the m pools as evenly as
/// possible — exactly Γ = n·Δ/m agents per pool when m divides n·Δ,
/// otherwise the first (n·Δ mod m) pools hold one extra agent.  The
/// construction is the classic edge shuffle: lay out every agent's Δ
/// stubs, Fisher–Yates-shuffle them with `rng`, and cut the sequence
/// into consecutive pools — a pure function of (n, m, delta, rng
/// stream), so fixed seeds reproduce the graph bit-for-bit.  Parallel
/// edges (an agent twice in one pool) are possible and carry the usual
/// multigraph semantics.  Throws `std::invalid_argument` for delta < 1
/// or m > n·delta (some pools would be empty).
[[nodiscard]] PoolingGraph make_doubly_regular_graph(Index n, Index m,
                                                     Index delta,
                                                     rand::Rng& rng);

/// Build the whole pooling graph for any `GraphDesign` family: per-query
/// designs delegate to `make_pooling_graph` (identical RNG stream), the
/// doubly regular family to `make_doubly_regular_graph`.
[[nodiscard]] PoolingGraph build_design_graph(Index n, Index m,
                                              const GraphDesign& design,
                                              rand::Rng& rng);

}  // namespace npd::pooling
