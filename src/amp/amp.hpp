#pragma once

/// \file amp.hpp
/// Approximate Message Passing for the pooled-data problem — the
/// comparison baseline of the paper's Section V (Figure 6), implementing
/// exactly the update rules printed in Section III:
///
///   σ^(t+1) = η_t( Aᵀ z^(t) + σ^(t) )
///   z^(t)   = σ̂ − A σ^(t)
///             + (n/m)·z^(t−1)·⟨η'_{t−1}(Aᵀ z^(t−1) + σ^(t−1))⟩
///
/// run on the standardized problem of preprocess.hpp.  The Onsager term
/// (the last summand) corrects for under-sampling when k/n is small
/// [19, 20].  The effective noise level τ_t is tracked empirically as
/// ‖z^(t)‖²/m (the standard practical estimator).  The final estimate
/// rounds the posterior scores to the top-k (k is known by assumption).
///
/// A is the problem's `DesignOperator`, applied on the pooling graph
/// itself: an iteration costs one forward and one transposed product,
/// O(nnz + m + n) each, plus O(n + m) vector work, and the solver holds
/// only O(n + m) doubles — so AMP runs at n = 10⁵ on the sparse designs
/// in the memory of the graph.

#include <vector>

#include "amp/denoiser.hpp"
#include "amp/preprocess.hpp"
#include "core/greedy.hpp"
#include "util/types.hpp"

namespace npd::amp {

/// Tunables of the AMP iteration.
struct AmpOptions {
  Index max_iterations = 50;
  /// Stop when the mean-squared update ‖x^(t+1) − x^(t)‖²/n drops below
  /// this tolerance.
  double convergence_tol = 1e-10;
  /// Damping factor in (0, 1]: x ← d·x_new + (1−d)·x_old.  1 = undamped.
  double damping = 1.0;
};

/// Full trace of an AMP run.
struct AmpResult {
  /// Final soft scores (posterior means in [0,1] for the Bayes denoiser).
  std::vector<double> x;
  /// Hard top-k rounding of `x`.
  BitVector estimate;
  Index iterations = 0;
  bool converged = false;
  /// Empirical τ_t² per iteration (‖z‖²/m), index 0 = before round 1.
  std::vector<double> tau2_history;
};

/// Run AMP on a standardized problem with the given denoiser.
[[nodiscard]] AmpResult run_amp(const AmpProblem& problem,
                                const Denoiser& denoiser,
                                const AmpOptions& options = {});

/// Convenience wrapper: standardize an instance with the channel
/// linearization, run Bayes-optimal AMP, and return the result.
[[nodiscard]] AmpResult amp_reconstruct(const core::Instance& instance,
                                        const noise::Linearization& lin,
                                        const AmpOptions& options = {});

}  // namespace npd::amp
