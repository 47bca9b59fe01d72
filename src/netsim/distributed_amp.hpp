#pragma once

/// \file distributed_amp.hpp
/// A **faithful distributed execution of AMP** on the network simulator —
/// the communication pattern the paper's conclusion (and Han et al. [32])
/// warns about.
///
/// AMP on the *standardized* (centered) design is dense: after centering,
/// every query's residual update depends on every agent's estimate and
/// vice versa (through Σ_i x_i and Σ_j z_j).  Each AMP iteration
/// therefore costs two network-wide floods:
///
///   * query round:  every query node broadcasts its residual z_j to all
///     n agents, and each agent computes its column (Bᵀz)_i from its own
///     (query, multiplicity) list plus Σ_j z_j;
///   * agent round:  every agent sends (η(r_i), η'(r_i)) to all m query
///     nodes, and each query computes its row (B·x)_j from its own
///     (agent, multiplicity) list plus Σ_i x_i, then updates its residual
///     with the Onsager term.
///
/// Nodes store only their own neighbour lists; the public constants μ
/// and 1/s come from the problem's `amp::DesignOperator`, whose `finish`
/// combines the two sums exactly as the centralized products do.
///
/// That is 2·n·m messages per iteration — versus the greedy protocol's
/// one-shot broadcast (the `abl7` scenario quantifies the gap).  The final
/// estimate is rounded to the k largest posterior scores with the same
/// distributed sorting-network protocol as Algorithm 1
/// (`run_distributed_topk`).
///
/// The arithmetic is ordered to match `amp::run_amp` operation for
/// operation, so with the same iteration budget (and no damping) the
/// distributed execution is **bit-identical** to the centralized one —
/// asserted by the tests.

#include "amp/amp.hpp"
#include "core/instance.hpp"
#include "netsim/network.hpp"

namespace npd::netsim {

/// Result of a faithful distributed AMP run.
struct DistributedAmpResult {
  /// Final per-agent posterior scores (equal to centralized AMP's x).
  std::vector<double> x;
  /// Top-k rounding via the distributed sorting network.
  BitVector estimate;
  /// Traffic of the AMP iterations alone.
  NetStats iteration_stats;
  /// Traffic of the final top-k phase.
  NetStats topk_stats;
  /// Iterations executed (the requested budget).
  Index iterations = 0;
};

/// Run `iterations` AMP rounds distributedly on a standardized problem.
/// `problem` must come from `amp::standardize(instance, ...)`; the
/// denoiser is shared public knowledge.  No damping, fixed iteration
/// budget (distributed convergence detection would need an extra
/// aggregation tree per iteration; callers pick the budget, e.g. from a
/// centralized run).
[[nodiscard]] DistributedAmpResult run_distributed_amp(
    const core::Instance& instance, const amp::AmpProblem& problem,
    const amp::Denoiser& denoiser, Index iterations);

}  // namespace npd::netsim
