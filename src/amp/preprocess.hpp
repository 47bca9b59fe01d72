#pragma once

/// \file preprocess.hpp
/// Centering and scaling of the pooled-data measurements into the
/// standardized linear model AMP expects.
///
/// The raw model is σ̂ = offset + gain·A·σ + w (per the channel's
/// linearization), where A is the m×n counting matrix whose entries have
/// mean Γ/n — far from the zero-mean i.i.d. ensemble AMP theory assumes.
/// Following the standard pooled-data treatment (Alaoui et al. [2]) we
/// work with the centered, column-normalized design
///
///   B = (A − μ) / s,              μ = Γ/n,  s = √(m·v),  v = μ(1 − 1/n),
///   y = (σ̂ − offset − gain·Γ·k/n) / (gain·s),
///
/// which satisfies y = B·σ + w' exactly for additive channels, with
/// columns of B of ≈ unit norm and effective noise variance
/// noise_var/(gain·s)².  (Since Σσ = k is known, the centering is exact,
/// not approximate.)
///
/// B is never stored.  `DesignOperator` applies it straight from the
/// pooling graph's per-query (distinct agent, multiplicity) lists:
///
///   B·x  = (A·x  − μ·(Σᵢ xᵢ)·1) / s,
///   Bᵀ·z = (Aᵀ·z − μ·(Σⱼ zⱼ)·1) / s,
///
/// so each product costs O(nnz + m + n) time and no memory beyond the
/// graph, on the paper's dense design and the sparse ones alike.  The
/// operator *borrows* the graph: an `AmpProblem` is only valid while the
/// instance it was built from is alive, which is why `standardize`
/// refuses temporaries.

#include <span>
#include <vector>

#include "amp/denoiser.hpp"
#include "core/instance.hpp"
#include "noise/channel.hpp"
#include "pooling/pooling_graph.hpp"

namespace npd::amp {

/// The standardized design B = (A − μ)/s as an operator on a borrowed
/// pooling graph.  With μ = 0 and 1/s = 1 it is the counting matrix A.
struct DesignOperator {
  const pooling::PoolingGraph* graph = nullptr;
  double mean_entry = 0.0;  ///< μ, subtracted from every entry of A.
  double inv_scale = 0.0;   ///< 1/s, applied after centering.

  [[nodiscard]] Index rows() const { return graph->num_queries(); }
  [[nodiscard]] Index cols() const { return graph->num_agents(); }

  /// One entry of a product from its two sums: `own` is the row's (or
  /// column's) sum over its graph neighbours, `total` the sum of the
  /// whole input vector.  Centralized and distributed AMP both finish
  /// every entry through here, in this order.
  [[nodiscard]] double finish(double own, double total) const {
    return (own - mean_entry * total) * inv_scale;
  }

  /// out = B·x (x has `cols()` entries, out `rows()`).  Each row sums its
  /// distinct agents in ascending order.
  void matvec(std::span<const double> x, std::span<double> out) const;

  /// out = Bᵀ·z (z has `rows()` entries, out `cols()`).  Each column
  /// accumulates its queries in ascending order.
  void matvec_transpose(std::span<const double> z,
                        std::span<double> out) const;
};

/// A standardized AMP problem.
struct AmpProblem {
  DesignOperator b;             ///< m×n centered, scaled design.
  std::vector<double> y;        ///< standardized observations.
  double effective_noise_var = 0.0;
  double pi = 0.0;              ///< prior P(σ_i = 1) = k/n.
  Index n = 0;
  Index m = 0;
  Index k = 0;
};

/// Build the standardized problem from an instance and the linearization
/// of the channel that produced its results.  The problem borrows
/// `instance.graph`.
[[nodiscard]] AmpProblem standardize(const core::Instance& instance,
                                     const noise::Linearization& lin);
AmpProblem standardize(const core::Instance&& instance,
                       const noise::Linearization& lin) = delete;

}  // namespace npd::amp
