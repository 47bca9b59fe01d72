#pragma once

/// \file greedy.hpp
/// The paper's contribution: the (noisy) Maximum Neighborhood Algorithm
/// — Algorithm 1 — as a centralized reference implementation.
///
/// The distributed execution (query broadcast + sorting network) lives in
/// `netsim/distributed_greedy.hpp` and is proven bit-identical to this
/// implementation by the integration tests; scenarios use this fast path.

#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/scores.hpp"
#include "util/types.hpp"

namespace npd::core {

/// Output of a greedy reconstruction.
struct GreedyResult {
  /// Estimated bit per agent (exactly `k` ones).
  BitVector estimate;
  /// Agents declared 1, sorted by agent id.
  std::vector<Index> declared_ones;
  /// score gap between the k-th largest score (weakest declared 1) and the
  /// (k+1)-th (strongest declared 0); > 0 iff the top-k is unambiguous.
  double separation_gap = 0.0;
};

/// Select the `k` agents with the largest scores (ties broken by smaller
/// agent id, matching the deterministic sorting-network comparator) and
/// declare them 1 — lines 12–16 of Algorithm 1.
[[nodiscard]] GreedyResult select_top_k(std::span<const double> scores,
                                        Index k);

/// Run Algorithm 1 end-to-end on an instance: accumulate scores, center,
/// select top-k.  The default centering is the channel-oblivious listing;
/// pass `centering_from(channel.linearization(...))` for the analysis'
/// channel-aware score (matters when q > 0, see scores.hpp).
[[nodiscard]] GreedyResult greedy_reconstruct(const Instance& instance,
                                              Centering centering = {});

/// Run the selection from an incremental `ScoreState` (the harness's
/// required-queries protocol uses this after every added query).
[[nodiscard]] GreedyResult greedy_from_scores(const ScoreState& scores);

}  // namespace npd::core
