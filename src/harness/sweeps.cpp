#include "harness/sweeps.hpp"

#include <algorithm>
#include <cmath>

#include "core/evaluation.hpp"
#include "core/greedy.hpp"
#include "core/instance.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace npd::harness {

std::vector<RequiredQueriesRow> required_queries_sweep(
    const std::vector<Index>& ns, Index reps, const KFactory& k_of_n,
    const DesignFactory& design_of_n, const ChannelFactory& channel_factory,
    std::uint64_t base_seed, const RequiredQueriesOptions& options,
    Index threads) {
  NPD_CHECK(reps >= 1);
  std::vector<RequiredQueriesRow> rows;
  rows.reserve(ns.size());

  const rand::Rng root(base_seed);
  for (std::size_t point = 0; point < ns.size(); ++point) {
    const Index n = ns[point];
    const Index k = k_of_n(n);
    const pooling::QueryDesign design = design_of_n(n);
    const auto channel = channel_factory(n, k);
    NPD_CHECK_MSG(channel != nullptr, "channel factory returned null");

    RequiredQueriesRow row;
    row.n = n;
    row.k = k;
    row.reps = reps;
    // Each rep owns its result slot and its derived RNG stream, so the
    // parallel execution is deterministic (see util/parallel.hpp).
    std::vector<RequiredQueriesResult> results(
        static_cast<std::size_t>(reps));
    parallel_for(reps, threads, [&](Index rep) {
      rand::Rng rng = root.derive(static_cast<std::uint64_t>(point) * 10'000 +
                                  static_cast<std::uint64_t>(rep));
      results[static_cast<std::size_t>(rep)] =
          required_queries(n, k, design, *channel, rng, options);
    });
    for (const RequiredQueriesResult& result : results) {
      if (!result.reached) {
        ++row.unreached;
      }
      row.samples.push_back(static_cast<double>(result.m));
    }
    row.summary = five_number_summary(row.samples);
    row.mean_m = mean(row.samples);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<SuccessPoint> success_sweep(Index n, Index k,
                                        const std::vector<Index>& ms,
                                        Index reps,
                                        const DesignFactory& design_of_n,
                                        const ChannelFactory& channel_factory,
                                        Algorithm algorithm,
                                        std::uint64_t base_seed,
                                        const amp::AmpOptions& amp_options,
                                        Index threads) {
  NPD_CHECK(reps >= 1);
  const pooling::QueryDesign design = design_of_n(n);
  const auto channel = channel_factory(n, k);
  NPD_CHECK_MSG(channel != nullptr, "channel factory returned null");
  const noise::Linearization lin = channel->linearization(n, k, design.gamma);

  std::vector<SuccessPoint> points;
  points.reserve(ms.size());
  const rand::Rng root(base_seed);

  for (std::size_t mi = 0; mi < ms.size(); ++mi) {
    const Index m = ms[mi];
    NPD_CHECK(m >= 1);
    SuccessPoint point;
    point.m = m;
    point.reps = reps;

    struct RepOutcome {
      bool success = false;
      double overlap = 0.0;
    };
    std::vector<RepOutcome> outcomes(static_cast<std::size_t>(reps));
    parallel_for(reps, threads, [&](Index rep) {
      rand::Rng rng = root.derive(static_cast<std::uint64_t>(mi) * 100'000 +
                                  static_cast<std::uint64_t>(rep));
      const core::Instance instance =
          core::make_instance(n, k, m, design, *channel, rng);

      BitVector estimate;
      switch (algorithm) {
        case Algorithm::Greedy:
          estimate = core::greedy_reconstruct(instance).estimate;
          break;
        case Algorithm::Amp:
          estimate = amp::amp_reconstruct(instance, lin, amp_options).estimate;
          break;
        case Algorithm::TwoStage:
          estimate = core::two_stage_reconstruct(instance, lin).estimate;
          break;
      }
      outcomes[static_cast<std::size_t>(rep)] = RepOutcome{
          .success = core::exact_success(estimate, instance.truth),
          .overlap = core::overlap(estimate, instance.truth)};
    });

    double successes = 0.0;
    double overlap_sum = 0.0;
    for (const RepOutcome& outcome : outcomes) {
      successes += outcome.success ? 1.0 : 0.0;
      overlap_sum += outcome.overlap;
    }
    point.success_rate = successes / static_cast<double>(reps);
    point.mean_overlap = overlap_sum / static_cast<double>(reps);
    points.push_back(point);
  }
  return points;
}

std::vector<Index> log_grid(Index lo, Index hi, Index points_per_decade) {
  NPD_CHECK(lo >= 1 && hi >= lo);
  NPD_CHECK(points_per_decade >= 1);
  std::vector<Index> grid;
  const double step = 1.0 / static_cast<double>(points_per_decade);
  const double start = std::log10(static_cast<double>(lo));
  const double stop = std::log10(static_cast<double>(hi));
  for (double e = start; e <= stop + 1e-12; e += step) {
    const auto v = static_cast<Index>(std::llround(std::pow(10.0, e)));
    if (grid.empty() || grid.back() != v) {
      grid.push_back(v);
    }
  }
  if (grid.back() != hi) {
    grid.push_back(hi);
  }
  return grid;
}

std::vector<Index> linear_grid(Index lo, Index hi, Index step) {
  NPD_CHECK(step >= 1 && hi >= lo);
  std::vector<Index> grid;
  for (Index v = lo; v <= hi; v += step) {
    grid.push_back(v);
  }
  return grid;
}

}  // namespace npd::harness
