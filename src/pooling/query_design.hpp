#pragma once

/// \file query_design.hpp
/// How a single query node chooses the agents it measures.
///
/// The paper's design (Section II): every query has size Γ = n/2 and picks
/// its Γ agents **uniformly at random with replacement** — so the pooling
/// graph is a bipartite *multigraph* and an agent can contribute to the
/// same query result more than once.  For the ablation scenarios we also
/// support sampling without replacement (a simple random Γ-subset) — the
/// design used by much of the classical group-testing literature.
///
/// Beyond the per-query samplers, `GraphDesign` describes a *whole-graph*
/// design family.  The doubly regular family (Hahn-Klimroth–Kaaser–Rau,
/// arXiv 2303.00043) fixes both degree sequences at once — every agent in
/// exactly Δ pools, every pool of size Γ — which no per-query sampler can
/// express; `build_design_graph` (pooling_graph.hpp) constructs it.

#include <vector>

#include "rand/rng.hpp"
#include "util/types.hpp"

namespace npd::pooling {

/// Sampling discipline for a single query.
enum class SamplingMode {
  /// Γ i.i.d. uniform draws; multi-edges possible (the paper's model).
  WithReplacement,
  /// A uniform Γ-subset; all edges simple (classical design, ablation A2).
  WithoutReplacement,
  /// Every agent joins independently with probability Γ/n; pool size is
  /// Binomial(n, Γ/n) — the i.i.d. Bernoulli design of the group-testing
  /// literature [5].  Empty draws are padded with one uniform agent.
  Bernoulli,
};

/// Parameters of the (non-adaptive) query design.
struct QueryDesign {
  /// Pool size Γ: number of agent slots per query.
  Index gamma = 0;
  /// Sampling discipline.
  SamplingMode mode = SamplingMode::WithReplacement;
};

/// Whole-graph design families (see `build_design_graph`).
enum class DesignFamily {
  /// Classical one-query-at-a-time sampling via a `QueryDesign`.
  PerQuery,
  /// Doubly regular configuration model: every agent sits in exactly Δ
  /// pools (with multiplicity) and pool sizes are fixed by n·Δ/m.
  DoublyRegular,
};

/// A whole-graph design: either a per-query sampling design or a doubly
/// regular (Δ tests per agent) configuration model.  Regularity is a
/// global property of the graph, so the doubly regular family carries the
/// agent degree Δ and leaves pool sizes to the construction.
struct GraphDesign {
  DesignFamily family = DesignFamily::PerQuery;
  /// The per-query sampler; meaningful when `family == PerQuery`.
  QueryDesign per_query;
  /// Agent degree Δ; meaningful when `family == DoublyRegular`.
  Index delta = 0;
};

/// The design used throughout the paper: Γ = n/2, with replacement.
/// Throws `std::invalid_argument` for n < 2 (no meaningful pool exists).
[[nodiscard]] QueryDesign paper_design(Index n);

/// A design with pool fraction `gamma_fraction` of `n` (ablation A1).
/// Throws `std::invalid_argument` for n < 2, a fraction outside (0, 1],
/// or a fraction that rounds to an empty pool (Γ = 0) — degenerate
/// designs are usage errors, never silently "fixed".
[[nodiscard]] QueryDesign fractional_design(Index n, double gamma_fraction,
                                            SamplingMode mode);

/// Sample the multiset of agents for one query node.  The result has
/// exactly `design.gamma` entries (with possible duplicates when sampling
/// with replacement) in sampling order.
[[nodiscard]] std::vector<Index> sample_query(const QueryDesign& design,
                                              Index n, rand::Rng& rng);

}  // namespace npd::pooling
