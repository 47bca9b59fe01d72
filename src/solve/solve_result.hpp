#pragma once

/// \file solve_result.hpp
/// The one result type every reconstruction algorithm returns.
///
/// Before the unified API each solver had a bespoke result struct
/// (`core::GreedyResult`, `core::TwoStageResult`, `amp::AmpResult`,
/// `netsim::DistributedGreedyResult`, ...), so every experiment
/// hand-wrote per-solver glue.  `SolveResult` is the common denominator:
///   * the hard estimate (always present, exactly k ones),
///   * soft per-agent scores when the algorithm produces them (centered
///     scores for greedy-family solvers, posterior means for AMP; empty
///     when unavailable),
///   * convergence info (iterations/rounds used, converged flag),
///   * per-solver diagnostics as a JSON object (separation gaps, τ²
///     traces, state-evolution predictions, ... — whatever the solver
///     wants to surface without widening the common type),
///   * network cost when the solver is a distributed execution.

#include <optional>
#include <vector>

#include "netsim/network.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace npd::solve {

/// Outcome of one reconstruction.
struct SolveResult {
  /// Estimated bit per agent (exactly `k` ones).
  BitVector estimate;
  /// Soft per-agent scores the hard estimate was rounded from; empty
  /// when the solver has none (e.g. the two-stage refinement).
  std::vector<double> scores;
  /// Iterations (AMP) or refinement rounds (two-stage) actually used;
  /// 0 for one-shot solvers.
  Index iterations = 0;
  /// False iff the solver stopped on its iteration budget without
  /// reaching its own convergence criterion.  One-shot solvers are
  /// always converged.
  bool converged = true;
  /// Per-solver diagnostics (JSON object; keys are solver-specific and
  /// documented per solver in builtin_solvers.cpp).
  Json diagnostics = Json::object();
  /// Network traffic of the full protocol — set iff the solver is a
  /// distributed execution on the netsim substrate.
  std::optional<netsim::NetStats> net;
};

}  // namespace npd::solve
