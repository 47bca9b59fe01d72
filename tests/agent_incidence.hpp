#pragma once

// Test-side derivation of a pooling graph's agent side.  The library
// stores only the query side, which is all the greedy algorithm and AMP
// read; the degrees Δ_i and Δ*_i of Lemmas 3 and 4 and each agent's
// incident queries belong to the analysis, so the tests derive them here
// from `query_distinct` / `query_multiplicity`.

#include <cstddef>
#include <vector>

#include "pooling/pooling_graph.hpp"

namespace npd::pooling {

struct AgentIncidence {
  /// Δ_i: number of times agent i was sampled, over all queries.
  std::vector<Index> delta;
  /// Δ*_i: number of distinct queries containing agent i.
  std::vector<Index> delta_star;
  /// ∂*x_i: the distinct queries containing agent i, ascending.
  std::vector<std::vector<Index>> queries;
};

inline AgentIncidence agent_incidence(const PoolingGraph& g) {
  const auto n = static_cast<std::size_t>(g.num_agents());
  AgentIncidence incidence{std::vector<Index>(n, 0), std::vector<Index>(n, 0),
                           std::vector<std::vector<Index>>(n)};
  for (Index j = 0; j < g.num_queries(); ++j) {
    const auto agents = g.query_distinct(j);
    const auto counts = g.query_multiplicity(j);
    for (std::size_t e = 0; e < agents.size(); ++e) {
      const auto i = static_cast<std::size_t>(agents[e]);
      incidence.delta[i] += counts[e];
      ++incidence.delta_star[i];
      incidence.queries[i].push_back(j);
    }
  }
  return incidence;
}

}  // namespace npd::pooling
