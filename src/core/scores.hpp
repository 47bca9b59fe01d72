#pragma once

/// \file scores.hpp
/// Neighborhood sums Ψ and the centered score of Algorithm 1.
///
/// Agent `i` accumulates Ψ_i = Σ_{distinct queries a ∋ i} σ̂_a and its
/// distinct degree Δ*_i.  The decision statistic is the centered score
///
///     score_i = Ψ_i − Σ_{a ∈ ∂*x_i} Γ_a·k/n,
///
/// which subtracts the expected contribution E[Ξ_i] ≈ Δ*_i·Γ·k/n of the
/// agents in i's queries (Section IV-B).  For the paper's design
/// Γ = n/2 this is exactly the score Ψ_i − Δ*_i·k/2 of Algorithm 1,
/// line 14; the per-query form additionally supports the query-size
/// ablations (variable Γ, constant-column-weight designs).  `ScoreState`
/// supports the paper's incremental protocol: queries can be applied one
/// at a time and scores stay consistent.

#include <span>
#include <vector>

#include "core/instance.hpp"
#include "util/types.hpp"

namespace npd::core {

/// How each received query result is centered before ranking.
///
/// The default (`gain = 1`, `offset_per_slot = 0`) is Algorithm 1 as
/// printed: subtract Γ_a·k/n per query — exact for the noiseless and
/// noisy-query models and for the Z-channel up to a (1−p) factor on a
/// small term.  For the general noisy channel (q > 0) the *analysis*
/// separates scores by ψ_j − E[Ξ^pq_j | G] (Equation 3), which requires
/// the channel constants (Section II-A assumes p, q are known):
///
///   E[σ̂_a | G] = q·Γ_a + (1−p−q)·Γ_a·k/n
///                = Γ_a·(offset_per_slot + gain·k/n).
///
/// Without this correction the per-query offset q·Γ couples with the
/// Θ(√m) fluctuations of Δ*_i and dominates the score noise at finite n
/// (the `abl3` scenario measures the effect).
struct Centering {
  /// Additive offset per pool slot (q for the bit-flip channel).
  double offset_per_slot = 0.0;
  /// Multiplicative gain on the true pool sum (1−p−q for bit flips).
  double gain = 1.0;
};

/// The channel-aware centering derived from a linearization built for
/// pool size `gamma_ref`.
[[nodiscard]] Centering centering_from(const noise::Linearization& lin,
                                       Index gamma_ref);

/// Mutable accumulator for Ψ, Δ* (and Δ) over a stream of queries.
class ScoreState {
 public:
  /// `k_hint` is the number of ones used for centering (known to the
  /// algorithm by model assumption).  The default `Centering` is the
  /// channel-oblivious score of Algorithm 1's listing.
  ScoreState(Index n, Index k_hint, Centering centering = {});

  /// Apply one measured query: `sampled` is the query's multiset (with
  /// multiplicity); the result is broadcast once per *distinct* agent.
  void apply_query(std::span<const Index> sampled, double result);

  /// Apply a pre-deduplicated query: distinct agents + multiplicities.
  void apply_query_distinct(std::span<const Index> distinct_agents,
                            std::span<const Index> multiplicities,
                            double result);

  /// Ψ_i: sum of the distinct query results agent `i` has received.
  [[nodiscard]] double psi(Index i) const {
    return psi_[static_cast<std::size_t>(i)];
  }

  /// Δ*_i: how many distinct queries agent `i` appeared in so far.
  [[nodiscard]] Index delta_star(Index i) const {
    return delta_star_[static_cast<std::size_t>(i)];
  }

  /// Δ_i: how many times agent `i` was sampled so far (with multiplicity).
  [[nodiscard]] Index delta(Index i) const {
    return delta_[static_cast<std::size_t>(i)];
  }

  /// The decision statistic Ψ_i − Σ_{a∋i} Γ_a·k/n of Algorithm 1
  /// (line 14; equal to Ψ_i − Δ*_i·k/2 under the paper's Γ = n/2).
  [[nodiscard]] double centered_score(Index i) const {
    return psi_[static_cast<std::size_t>(i)] -
           center_[static_cast<std::size_t>(i)];
  }

  /// All centered scores as a dense vector (size n).
  [[nodiscard]] std::vector<double> centered_scores() const;

  /// All raw neighborhood sums (ablation A3 compares against these).
  [[nodiscard]] std::span<const double> raw_psi() const { return psi_; }

  [[nodiscard]] Index n() const { return static_cast<Index>(psi_.size()); }
  [[nodiscard]] Index queries_applied() const { return queries_applied_; }
  [[nodiscard]] Index k_hint() const { return k_hint_; }

  /// Reset to the empty state (keeps n and k).
  void reset();

 private:
  std::vector<double> psi_;
  std::vector<double> center_;  // accumulated Σ Γ_a·k/n per agent
  std::vector<Index> delta_star_;
  std::vector<Index> delta_;
  // Stamp-based O(Γ) deduplication: stamp_[i] == current query's epoch
  // iff agent i was already seen in this query.
  std::vector<Index> stamp_;
  Index epoch_ = 0;
  Index k_hint_;
  double center_per_slot_;  // offset_per_slot + gain·k/n
  Index queries_applied_ = 0;
};

/// Compute the final score state of a full instance in one pass
/// (channel-oblivious centering by default).
[[nodiscard]] ScoreState compute_scores(const Instance& instance,
                                        Centering centering = {});

}  // namespace npd::core
