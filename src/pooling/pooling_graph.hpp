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
/// Storage is query-side only (CSR): per query the sampled multiset and
/// the (distinct agent, multiplicity) list — all the greedy algorithm and
/// AMP read.  The degrees Δ_i, Δ*_i of Lemmas 3 and 4 belong to the
/// analysis; tests derive them (tests/agent_incidence.hpp).
///
/// Construction.  `PoolingGraphBuilder::add_query` deduplicates a query of
/// Γ draws with Γ* distinct agents in O(Γ + min(n, Γ* log Γ*)) time, with
/// no allocation once its buffers have grown: it counts multiplicities
/// into n per-builder counters, then emits the distinct agents ascending
/// by one scan of all n counters (Γ*·8 ≥ n, e.g. the paper's Γ = n/2) or
/// by sorting the first-seen list (sparse designs).  Invariant: every
/// counter is zero between calls — a query is validated in full before
/// any state changes, and each counter is reset as the emission reads it.
///
/// Recycled storage.  Each thread has a one-slot cache for one graph's
/// arrays.  A dying graph (destructor, or target of a move assignment)
/// parks its arrays there unless the slot holds larger ones; a new builder
/// takes them, emptied, so steady-state builds write into warm pages, not
/// pages freshly faulted from the kernel (arrays too small for a `reserve`
/// are freed before it allocates).  Memory bound: each thread holds at most
/// one extra graph, the size of the largest graph it has built.  Copies
/// allocate fresh storage; moved-from graphs hand back nothing; a graph
/// dying at thread or process exit after the slot is gone just frees.

#include <optional>
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
  PoolingGraph(const PoolingGraph&) = default;
  PoolingGraph(PoolingGraph&&) noexcept = default;
  PoolingGraph& operator=(const PoolingGraph&) = default;
  /// Both park the arrays being dropped in the thread's slot.
  PoolingGraph& operator=(PoolingGraph&& other) noexcept;
  ~PoolingGraph();

  [[nodiscard]] Index num_agents() const { return n_; }
  [[nodiscard]] Index num_queries() const {
    return static_cast<Index>(s_.query_offsets.size()) - 1;
  }
  /// Total number of edges counted with multiplicity (= Σ_j |∂a_j| = m·Γ
  /// for the paper's fixed-size design).
  [[nodiscard]] Index num_edges() const {
    return static_cast<Index>(s_.query_agents.size());
  }

  /// The sampled multiset ∂a_j of query `j` (length Γ_j, duplicates
  /// possible, in sampling order).
  [[nodiscard]] std::span<const Index> query_multiset(Index j) const;

  /// Distinct agents ∂*a_j of query `j`, sorted ascending.
  [[nodiscard]] std::span<const Index> query_distinct(Index j) const;

  /// Multiplicities parallel to `query_distinct(j)`.
  [[nodiscard]] std::span<const Index> query_multiplicity(Index j) const;

  /// Multiplicity of agent `i` in query `j` (0 if absent).  O(log Γ*).
  [[nodiscard]] Index multiplicity(Index j, Index i) const;

 private:
  friend class PoolingGraphBuilder;

  struct Storage {
    // Query -> sampled multiset (CSR).
    std::vector<Index> query_offsets{0};
    std::vector<Index> query_agents;
    // Query -> (distinct agent, multiplicity) (CSR).
    std::vector<Index> distinct_offsets{0};
    std::vector<Index> distinct_agents;
    std::vector<Index> distinct_counts;
  };

  /// This thread's slot: null once destroyed, or unborn and not `create`.
  static std::optional<Storage>* thread_slot(bool create) noexcept;
  void recycle() noexcept;
  /// An empty graph on `n` agents, in the slot's arrays if it holds any.
  explicit PoolingGraph(Index n);

  Index n_ = 0;
  Storage s_;
};

/// Incremental builder: queries are added one at a time — exactly the
/// paper's measurement protocol ("we simulate one query node after the
/// other in a sequential manner").
class PoolingGraphBuilder {
 public:
  /// Takes the calling thread's recycled arrays, if any.
  explicit PoolingGraphBuilder(Index n);

  /// Reserve storage for `queries` more queries holding about `edges`
  /// more sampled entries, so a graph of known shape is built without
  /// regrowing its arrays.
  void reserve(Index queries, Index edges);

  /// Append one query given its sampled multiset; returns the query id.
  /// Throws `ContractViolation` for an empty query or an agent id outside
  /// [0, n); a rejected query leaves the builder unchanged.
  Index add_query(std::span<const Index> sampled_agents);

  [[nodiscard]] Index num_queries_so_far() const {
    return graph_.num_queries();
  }

  /// Freeze into an immutable graph; the builder is left empty.
  [[nodiscard]] PoolingGraph build();

 private:
  Index n_;
  PoolingGraph graph_;
  // Per-agent multiplicity counters of the query being added; all zero
  // between calls.
  std::vector<Index> count_;
  // Distinct agents of the query being added, in first-seen order.
  std::vector<Index> first_seen_;
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
