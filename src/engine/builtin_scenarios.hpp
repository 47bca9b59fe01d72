#pragma once

/// \file builtin_scenarios.hpp
/// The paper's experiments as registered engine scenarios.  Every one is
/// a short declaration over one job-grid skeleton (builtin_scenarios.cpp):
/// a mixed-radix grid of cells, `reps` jobs per cell in ascending cell
/// order, and one of three seed policies —
///
///   * canonical: `derive_job_seed(seed, scenario, cell, rep)`;
///   * rooted:    `Rng(seed + salt(cell)).derive(stream(cell, rep))`, the
///                `harness::success_sweep` / `required_queries_sweep`
///                derivation, replicated byte for byte;
///   * raw:       `seed + n`, one job per cell whatever `reps` is.
///
/// | scenario            | grid (slowest axis first)              | seeds     |
/// |---------------------|----------------------------------------|-----------|
/// | `fig2`              | Z-channel p × n log grid               | rooted    |
/// | `fig3`              | {noiseless, λ} × n log grid            | rooted    |
/// | `fig4`              | p = q ∈ {1e-1..1e-5} × n log grid      | rooted    |
/// | `fig5`              | n ∈ {1e3, 1e4, 1e5} × 7 channels       | rooted    |
/// | `fig6`              | Z-channel p × solver × m               | rooted    |
/// | `abl1`              | pool fraction Γ/n                      | rooted    |
/// | `abl2`              | query design × m                       | rooted    |
/// | `abl3`              | m (three centerings per instance)      | rooted    |
/// | `abl4`              | solver × m                             | rooted    |
/// | `abl5`              | query-noise level λ                    | rooted    |
/// | `abl6`              | m (three AMP variants per instance)    | rooted    |
/// | `abl7`              | n log grid                             | raw       |
/// | `fixed_m`           | m around the Theorem 1 bound           | canonical |
/// | `fixed_m_greedy`    | as `fixed_m`, default solver greedy    | canonical |
/// | `fixed_m_amp`       | as `fixed_m`, default solver amp       | canonical |
/// | `fixed_m_two_stage` | as `fixed_m`, default solver two_stage | canonical |
/// | `solver_sweep`      | n log grid                             | canonical |
/// | `phase_atlas`       | design × solver × channel × n × m_frac | canonical |
///
/// The three `fixed_m_*` names are deprecated aliases; canonical seeds
/// are keyed on the scenario name, so each keeps its own streams.
///
/// Figures 2–6 and abl1–abl6 are the paper's Section V experiments and
/// ablations; `fixed_m*`, `solver_sweep` and `phase_atlas` run any
/// registered solver.  Each rooted derivation is pinned by an
/// `EngineAgreementTest` case in tests/engine_test.cpp, and every
/// scenario's report bytes by the `tools.scenario_golden` ctest.

#include "engine/scenario.hpp"

namespace npd::engine {

/// Register every built-in scenario listed above.
void register_builtin_scenarios(ScenarioRegistry& registry);

}  // namespace npd::engine
