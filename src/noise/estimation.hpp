#pragma once

/// \file estimation.hpp
/// Method-of-moments estimation of the model parameters from the query
/// results alone — removing the oracle assumptions of the paper.
///
/// The paper assumes k (Section II) and the channel constants p, q
/// (Section II-A) are known.  In practice they are estimated:
///
/// * **k** from the first moment: for any additive channel with
///   linearization σ̂ ≈ offset + gain·S and pool size Γ,
///   E[σ̂] = offset + gain·Γ·k/n  ⇒  k̂ = n·(mean(σ̂) − offset)/(gain·Γ).
///
/// * **(p, q)** of the bit-flip channel from the first two moments:
///   each of the Γ edges reads 1 with probability
///   r = q + (k/n)(1−p−q), independently given typical pools, so
///     E[σ̂]   = Γ·r,
///     Var[σ̂] ≈ Γ·r(1−r) + gain²·Var[S].
///   Given k (or its estimate), r̂ = mean(σ̂)/Γ pins one linear relation
///   between p and q; a known q (e.g. q = 0 for the Z-channel, the common
///   case [14, 53]) then yields p̂ = 1 − (r̂ − q)·n/k̂ − q·...
///   (see `estimate_z_channel_p`).
///
/// * **λ²** of the Gaussian query channel from the excess variance over
///   the binomial pool-sum variance.
///
/// No `src/` file includes this header; its callers are
/// `examples/parameter_estimation.cpp` and `tests/noise_test.cpp`.

#include <span>

#include "util/types.hpp"

namespace npd::noise {

/// Estimate k from query results of pools with `gamma` slots each,
/// assuming the affine channel `σ̂ ≈ offset + gain·S`.
/// Returns the real-valued estimate (callers round).
[[nodiscard]] double estimate_k(std::span<const double> results, Index n,
                                Index gamma, double gain = 1.0,
                                double offset = 0.0);

/// Estimate the Z-channel's false-negative rate p from query results,
/// given the true (or separately estimated) k:
///   E[σ̂] = Γ·(k/n)(1−p)  ⇒  p̂ = 1 − n·mean(σ̂)/(Γ·k).
/// The estimate is clamped to [0, 1).
[[nodiscard]] double estimate_z_channel_p(std::span<const double> results,
                                          Index n, Index gamma, Index k);

/// Estimate the Gaussian query-noise variance λ² from the excess of the
/// empirical result variance over the sampling variance of the exact
/// pool sum.  For pools of `gamma` i.i.d. slots with success rate k/n:
///   Var[S] = Γ·(k/n)(1−k/n)  (up to O(1/n) replacement corrections),
///   Var[σ̂] = Var[S] + λ²  ⇒  λ̂² = max(0, var(σ̂) − Var[S]).
[[nodiscard]] double estimate_lambda_squared(std::span<const double> results,
                                             Index n, Index gamma, Index k);

/// Sample mean of the results (exposed for reuse/tests).
[[nodiscard]] double results_mean(std::span<const double> results);

/// Unbiased sample variance of the results.
[[nodiscard]] double results_variance(std::span<const double> results);

}  // namespace npd::noise
