#pragma once

/// \file sweeps.hpp
/// Replicated experiment sweeps: the loops that turn the single-run
/// protocols (required queries, fixed-m reconstruction) into the series
/// plotted in the paper's figures.  Seeds are derived deterministically
/// from a base seed, the grid point and the repetition index, so every
/// figure is reproducible and points can be recomputed independently.

#include <functional>
#include <memory>
#include <vector>

#include "amp/amp.hpp"
#include "core/two_stage.hpp"
#include "harness/required_queries.hpp"
#include "harness/stats.hpp"
#include "noise/channel.hpp"
#include "pooling/query_design.hpp"

namespace npd::harness {

/// Factory: builds the channel for a grid point (n, k).  Channels may
/// depend on (n, k) (e.g. the adversarial channel needs them).
using ChannelFactory =
    std::function<std::unique_ptr<noise::NoiseChannel>(Index n, Index k)>;

/// Factory: builds the query design for n (defaults to `paper_design`).
using DesignFactory = std::function<pooling::QueryDesign(Index n)>;

/// Factory: the number of 1-agents for n (regime selection).
using KFactory = std::function<Index(Index n)>;

// ------------------------------------------------- required-queries sweeps

/// One grid point aggregated over repetitions.
struct RequiredQueriesRow {
  Index n = 0;
  Index k = 0;
  FiveNumberSummary summary;     ///< of the per-rep required m
  double mean_m = 0.0;
  Index reps = 0;
  Index unreached = 0;           ///< reps that hit the query cap
  std::vector<double> samples;   ///< raw per-rep m values (for boxplots)
};

/// Sweep the required-queries protocol over a grid of n values.
/// Repetitions run on up to `threads` cores (0 = auto, 1 = sequential);
/// per-rep RNG streams are derived from the base seed, so results are
/// bit-identical regardless of the thread count.
[[nodiscard]] std::vector<RequiredQueriesRow> required_queries_sweep(
    const std::vector<Index>& ns, Index reps, const KFactory& k_of_n,
    const DesignFactory& design_of_n, const ChannelFactory& channel_factory,
    std::uint64_t base_seed, const RequiredQueriesOptions& options = {},
    Index threads = 1);

// ------------------------------------------------------ fixed-m sweeps

/// Which reconstruction algorithm a sweep evaluates.
enum class Algorithm {
  Greedy,     ///< Algorithm 1 (centralized reference path)
  Amp,        ///< Bayes-optimal AMP (Section III baseline)
  TwoStage,   ///< greedy + local correction (conclusion's open question)
};

/// One point of a success-rate / overlap curve.
struct SuccessPoint {
  Index m = 0;
  double success_rate = 0.0;  ///< fraction of reps with exact recovery
  double mean_overlap = 0.0;  ///< average fraction of 1-bits identified
  Index reps = 0;
};

/// For each m in `ms`, run `reps` independent reconstructions of fresh
/// instances (n agents, k ones, channel noise) and record the exact
/// success rate (Figure 6) and the mean overlap (Figure 7).
/// `threads` as in `required_queries_sweep`.
///
/// The reference loop the engine's fixed-m scenarios are pinned against
/// (`EngineAgreementTest` in tests/engine_test.cpp): its per-rep seed
/// derivation is the one those scenarios replicate.
[[nodiscard]] std::vector<SuccessPoint> success_sweep(
    Index n, Index k, const std::vector<Index>& ms, Index reps,
    const DesignFactory& design_of_n, const ChannelFactory& channel_factory,
    Algorithm algorithm, std::uint64_t base_seed,
    const amp::AmpOptions& amp_options = {}, Index threads = 1);

/// Log-spaced grid of n values from `lo` to `hi` with `points_per_decade`
/// (rounded, deduplicated, ascending) — the x-axes of Figures 2-4.
[[nodiscard]] std::vector<Index> log_grid(Index lo, Index hi,
                                          Index points_per_decade);

/// Linear grid `lo, lo+step, ..., <= hi`.
[[nodiscard]] std::vector<Index> linear_grid(Index lo, Index hi, Index step);

}  // namespace npd::harness
