#pragma once

/// \file builtin_scenarios.hpp
/// The paper's experiments as registered engine scenarios:
///
///   * `fig5`            — required-queries boxplots (Figure 5): the
///     Z-channel at p ∈ {0.1, 0.3, 0.5} and the noisy query model at
///     λ ∈ {0..3}, n ∈ {10³, 10⁴(, 10⁵)}.  Job seeds follow the
///     `harness::required_queries_sweep` derivation exactly, so the
///     aggregates equal that reference loop's for the same seed.
///   * `abl7`            — distributed cost accounting (Ablation A7):
///     greedy vs (dense-measured and sparse-modelled) distributed AMP.
///     One instance per n, deterministic per (seed, n), so the
///     scenario schedules exactly one job per cell regardless of the
///     requested repetitions.
///   * `fixed_m_greedy`, `fixed_m_amp`, `fixed_m_two_stage` — fixed-m
///     reconstruction over an m-grid placed relative to the Theorem 1
///     bound, reporting exact-success rate and overlap (the Figure 6/7
///     protocol).  These use the engine's canonical
///     (seed, scenario, cell, rep) stream derivation.
///   * `fig2`, `fig3`, `fig4` — required-queries curves (Z-channel,
///     noisy-query, general p=q channel), each replicating the
///     `harness::required_queries_sweep` seed derivation byte for byte.
///   * `fig6`            — success rate vs m at fixed n, one series per
///     registered solver (default greedy vs AMP), replicating the
///     `harness::success_sweep` seed derivation.
///
/// Each replicated derivation is pinned by an `EngineAgreementTest` case
/// in tests/engine_test.cpp, and every scenario's report bytes by the
/// `tools.scenario_golden` ctest.

#include "engine/scenario.hpp"

namespace npd::engine {

/// Register every built-in scenario listed above.
void register_builtin_scenarios(ScenarioRegistry& registry);

}  // namespace npd::engine
