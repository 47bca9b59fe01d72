// Tests for the batch experiment engine: job-seed derivation, the
// JobQueue scheduler's determinism, the scenario registry round-trip
// (register → list → run-by-name with parameter overrides), the run
// report's deterministic core, and the agreement between the engine's
// built-in scenarios and the harness reference loops whose seed
// derivations they replicate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "amp/amp.hpp"
#include "amp/state_evolution.hpp"
#include "core/evaluation.hpp"
#include "core/greedy.hpp"
#include "core/instance.hpp"
#include "core/scores.hpp"
#include "core/theory.hpp"
#include "engine/builtin_scenarios.hpp"
#include "engine/engine.hpp"
#include "harness/sweeps.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/pooling_graph.hpp"
#include "pooling/query_design.hpp"
#include "util/assert.hpp"

namespace npd::engine {
namespace {

// A deterministic toy scenario: every job draws one uniform value from
// its derived stream, scaled by a typed parameter.
class TestScenario final : public Scenario {
 public:
  std::string name() const override { return "test_scenario"; }

  std::string description() const override {
    return "deterministic toy scenario for the engine tests";
  }

  std::vector<ParamSpec> params() const override {
    return {{"cells", ParamSpec::Kind::Int, "2", "grid cells"},
            {"scale", ParamSpec::Kind::Double, "1.0", "value scale"},
            {"tag", ParamSpec::Kind::String, "default", "free-form tag"}};
  }

  std::vector<Job> make_jobs(const EngineConfig& config,
                             const ScenarioParams& params) const override {
    const auto cells = static_cast<Index>(params.get_int("cells"));
    const double scale = params.get_double("scale");
    std::vector<Job> jobs;
    for (Index cell = 0; cell < cells; ++cell) {
      for (Index rep = 0; rep < config.reps; ++rep) {
        Job job;
        job.cell = cell;
        job.rep = rep;
        job.seed = derive_job_seed(config.seed, "test_scenario", cell, rep);
        job.cost_hint = cell + 1;
        job.run = [scale](rand::Rng& rng) -> Metrics {
          return {{"value", scale * rng.uniform_real()}};
        };
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  Json aggregate(const std::vector<JobResult>& results,
                 const ScenarioParams& params) const override {
    const std::string tag = params.get_string("tag");
    return aggregate_cells(results, [&tag](Index cell) {
      Json meta = Json::object();
      meta.set("id", cell).set("tag", tag);
      return meta;
    });
  }
};

// ------------------------------------------------------- seed derivation

TEST(JobSeedTest, DeterministicAndCoordinateSensitive) {
  const std::uint64_t s = derive_job_seed(42, "fig5", 3, 7);
  EXPECT_EQ(s, derive_job_seed(42, "fig5", 3, 7));
  std::set<std::uint64_t> seeds{s};
  seeds.insert(derive_job_seed(43, "fig5", 3, 7));
  seeds.insert(derive_job_seed(42, "abl7", 3, 7));
  seeds.insert(derive_job_seed(42, "fig5", 4, 7));
  seeds.insert(derive_job_seed(42, "fig5", 3, 8));
  EXPECT_EQ(seeds.size(), 5u);  // every coordinate separates streams
}

// --------------------------------------------------------------- JobQueue

TEST(JobQueueTest, ResultsInSubmissionOrderForAnyThreadCount) {
  const auto run = [](Index threads) {
    JobQueue queue;
    for (Index i = 0; i < 17; ++i) {
      Job job;
      job.cell = i;
      job.rep = 0;
      job.seed = derive_job_seed(99, "q", i, 0);
      // Reverse hints so the schedule order differs from submission.
      job.cost_hint = 17 - i;
      job.run = [i](rand::Rng& rng) -> Metrics {
        return {{"i", static_cast<double>(i)},
                {"draw", rng.uniform_real()}};
      };
      (void)queue.push(std::move(job));
    }
    return queue.run(threads);
  };

  const auto sequential = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(sequential.size(), 17u);
  ASSERT_EQ(parallel.size(), 17u);
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].cell, static_cast<Index>(i));
    EXPECT_DOUBLE_EQ(sequential[i].metrics[0].value,
                     static_cast<double>(i));
    // Bit-identical across thread counts: same seed, same draw.
    EXPECT_EQ(sequential[i].metrics[1].value, parallel[i].metrics[1].value);
  }
}

TEST(JobQueueTest, PushRejectsEmptyBody) {
  JobQueue queue;
  EXPECT_THROW((void)queue.push(Job{}), ContractViolation);
}

// --------------------------------------------------------------- registry

TEST(ScenarioRegistryTest, RegisterListFindRoundTrip) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<TestScenario>());
  register_builtin_scenarios(registry);

  const Scenario* found = registry.find("test_scenario");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name(), "test_scenario");
  EXPECT_EQ(registry.find("no_such_scenario"), nullptr);

  const auto all = registry.list();
  ASSERT_EQ(all.size(), 19u);  // 18 builtins + the test scenario
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name(), all[i]->name());  // sorted by name
  }
}

TEST(ScenarioRegistryTest, DuplicateNamesAreRejected) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<TestScenario>());
  EXPECT_THROW(registry.add(std::make_unique<TestScenario>()),
               ContractViolation);
}

TEST(ScenarioParamsTest, TypedDefaultsOverridesAndErrors) {
  ScenarioParams params(TestScenario().params());
  EXPECT_EQ(params.get_int("cells"), 2);
  EXPECT_DOUBLE_EQ(params.get_double("scale"), 1.0);
  EXPECT_EQ(params.get_string("tag"), "default");

  params.set("cells", "5");
  params.set("scale", "2.5");
  params.set("tag", "alt");
  EXPECT_EQ(params.get_int("cells"), 5);
  EXPECT_DOUBLE_EQ(params.get_double("scale"), 2.5);
  EXPECT_EQ(params.get_string("tag"), "alt");

  EXPECT_THROW(params.set("unknown", "1"), std::invalid_argument);
  EXPECT_THROW(params.set("cells", "not-a-number"), std::invalid_argument);
  EXPECT_THROW(params.set("cells", "3x"), std::invalid_argument);
  EXPECT_THROW((void)params.get_int("unknown"), std::invalid_argument);

  const Json json = params.to_json();
  EXPECT_EQ(json.at("cells").as_int(), 5);
  EXPECT_DOUBLE_EQ(json.at("scale").as_double(), 2.5);
  EXPECT_EQ(json.at("tag").as_string(), "alt");
}

// -------------------------------------------------------------- run_batch

TEST(RunBatchTest, RunsByNameWithOverrides) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<TestScenario>());

  BatchRequest request;
  request.scenario_names = {"test_scenario"};
  request.config.seed = 11;
  request.config.reps = 3;
  request.config.threads = 2;
  request.overrides.push_back({"test_scenario", "cells", "4"});
  request.overrides.push_back({"test_scenario", "tag", "overridden"});

  const RunReport report = run_batch(registry, request);
  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_EQ(report.scenarios[0].name, "test_scenario");
  EXPECT_EQ(report.scenarios[0].jobs, 12);  // 4 cells x 3 reps
  EXPECT_EQ(report.total_jobs, 12);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells.at(0).at("tag").as_string(), "overridden");
  const Json& value = cells.at(0).at("metrics").at("value");
  EXPECT_EQ(value.at("count").as_int(), 3);
  // The full stats roster, p95/p99 included, is surfaced per metric.
  for (const char* stat :
       {"mean", "stddev", "min", "q1", "median", "q3", "max", "p95",
        "p99"}) {
    EXPECT_NE(value.find(stat), nullptr) << stat;
  }
}

TEST(RunBatchTest, UnknownNamesAndStrayOverridesThrow) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<TestScenario>());

  BatchRequest unknown;
  unknown.scenario_names = {"nope"};
  EXPECT_THROW((void)run_batch(registry, unknown), std::invalid_argument);

  BatchRequest stray;
  stray.scenario_names = {"test_scenario"};
  stray.overrides.push_back({"fig5", "max_n", "1000"});
  EXPECT_THROW((void)run_batch(registry, stray), std::invalid_argument);
}

TEST(RunBatchTest, DeterministicReportBytesAcrossThreadCounts) {
  const auto run = [](Index threads) {
    ScenarioRegistry registry;
    register_builtin_scenarios(registry);
    BatchRequest request;
    request.scenario_names = {"fixed_m_greedy"};
    request.config.seed = 5;
    request.config.reps = 3;
    request.config.threads = threads;
    request.overrides.push_back({"fixed_m_greedy", "n", "150"});
    request.overrides.push_back({"fixed_m_greedy", "m_points", "2"});
    return run_batch(registry, request);
  };
  const RunReport sequential = run(1);
  const RunReport parallel = run(4);
  // The perf-free serialization must be byte-identical...
  EXPECT_EQ(sequential.to_json(false).dump(2),
            parallel.to_json(false).dump(2));
  // ...and the perf stamps must exist in the full report.
  EXPECT_NE(parallel.to_json(true).find("perf"), nullptr);
}

// ---------------------------------------------- plan_batch / build_report

TEST(BatchPlanTest, RunBatchEqualsPlanExecuteAggregate) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<TestScenario>());
  BatchRequest request;
  request.scenario_names = {"test_scenario"};
  request.config.seed = 11;
  request.config.reps = 2;
  request.config.threads = 2;
  request.overrides.push_back({"test_scenario", "cells", "3"});

  const BatchPlan plan = plan_batch(registry, request);
  ASSERT_EQ(plan.scenarios.size(), 1u);
  EXPECT_EQ(plan.scenarios[0].job_count, 6);  // 3 cells x 2 reps
  JobQueue queue;
  for (const Job& job : plan.jobs) {
    (void)queue.push(job);
  }
  const RunReport composed =
      build_report(plan, queue.run(2), request.config.threads);
  const RunReport direct = run_batch(registry, request);
  EXPECT_EQ(composed.to_json(false).dump(2), direct.to_json(false).dump(2));
}

TEST(BatchPlanTest, FingerprintSeparatesBatches) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<TestScenario>());
  const auto fingerprint = [&](std::uint64_t seed, Index reps,
                               const char* scale) {
    BatchRequest request;
    request.scenario_names = {"test_scenario"};
    request.config.seed = seed;
    request.config.reps = reps;
    request.overrides.push_back({"test_scenario", "scale", scale});
    return plan_batch(registry, request).fingerprint();
  };

  const std::string base = fingerprint(1, 2, "1.0");
  EXPECT_EQ(base, fingerprint(1, 2, "1.0"));  // pure function
  std::set<std::string> prints{base};
  prints.insert(fingerprint(2, 2, "1.0"));  // seed
  prints.insert(fingerprint(1, 3, "1.0"));  // reps
  prints.insert(fingerprint(1, 2, "2.5"));  // scenario option
  EXPECT_EQ(prints.size(), 4u);
}

TEST(BatchPlanTest, JobKeyNamesScenarioCellRepAndSeed) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<TestScenario>());
  BatchRequest request;
  request.scenario_names = {"test_scenario"};
  request.config.seed = 7;
  request.config.reps = 2;
  const BatchPlan plan = plan_batch(registry, request);
  ASSERT_EQ(plan.jobs.size(), 4u);
  EXPECT_EQ(plan.scenario_of(3), 0);
  const std::string key = plan.job_key(3);
  EXPECT_EQ(key.find("test_scenario/cell=1/rep=1/seed="), 0u) << key;
  std::set<std::string> keys;
  for (Index j = 0; j < static_cast<Index>(plan.jobs.size()); ++j) {
    keys.insert(plan.job_key(j));
  }
  EXPECT_EQ(keys.size(), plan.jobs.size());  // keys separate jobs
}

// ---------------------------------------- agreement with the legacy paths

TEST(EngineAgreementTest, Fig5CellsMatchLegacySweepDerivation) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"fig5"};
  request.config.seed = 42;
  request.config.reps = 2;
  request.config.threads = 4;
  request.overrides.push_back({"fig5", "max_n", "1000"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  ASSERT_EQ(cells.size(), 7u);  // 3 Z-channels + 4 Gaussian levels

  // Cell 0 is the Z-channel at p = 0.1, historical salt
  // uint64(0.1 * 8009) = 800: recompute through the legacy
  // required_queries_sweep derivation and compare the aggregates.
  const auto rows = harness::required_queries_sweep(
      {1000}, 2, [](Index nn) { return pooling::sublinear_k(nn, 0.25); },
      [](Index nn) { return pooling::paper_design(nn); },
      [](Index, Index) { return noise::make_z_channel(0.1); },
      42 + static_cast<std::uint64_t>(0.1 * 8009.0));
  const Json& cell = cells.at(0);
  EXPECT_EQ(cell.at("n").as_int(), 1000);
  EXPECT_EQ(cell.at("channel").as_string(), "z(p=0.1)");
  const Json& m = cell.at("metrics").at("m");
  EXPECT_DOUBLE_EQ(m.at("min").as_double(), rows[0].summary.min);
  EXPECT_DOUBLE_EQ(m.at("q1").as_double(), rows[0].summary.q1);
  EXPECT_DOUBLE_EQ(m.at("median").as_double(), rows[0].summary.median);
  EXPECT_DOUBLE_EQ(m.at("q3").as_double(), rows[0].summary.q3);
  EXPECT_DOUBLE_EQ(m.at("max").as_double(), rows[0].summary.max);
  EXPECT_DOUBLE_EQ(m.at("mean").as_double(), rows[0].mean_m);
}

TEST(EngineAgreementTest, Abl7IsRepCountInvariant) {
  // abl7's randomness is per-(seed, n), so the scenario collapses to
  // one job per cell and the aggregates are identical for every
  // requested repetition count.
  const auto run = [](Index reps) {
    ScenarioRegistry registry;
    register_builtin_scenarios(registry);
    BatchRequest request;
    request.scenario_names = {"abl7"};
    request.config.seed = 42;
    request.config.reps = reps;
    request.config.threads = 2;
    request.overrides.push_back({"abl7", "max_n", "100"});
    request.overrides.push_back({"abl7", "amp_sim_max_n", "100"});
    return run_batch(registry, request);
  };
  const RunReport once = run(1);
  const RunReport twice = run(2);
  EXPECT_EQ(once.scenarios[0].jobs, twice.scenarios[0].jobs);
  EXPECT_EQ(once.scenarios[0].aggregates.dump(2),
            twice.scenarios[0].aggregates.dump(2));
}

TEST(EngineAgreementTest, Fig2CellsMatchLegacySweepDerivation) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"fig2"};
  request.config.seed = 42;
  request.config.reps = 2;
  request.config.threads = 2;
  request.overrides.push_back({"fig2", "max_n", "1000"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  // log_grid(100, 1000, 2) has 3 points; 3 Z-channel levels.
  ASSERT_EQ(cells.size(), 9u);

  // Cell 0 is p = 0.1 at n = 100: the reference loop is
  // required_queries_sweep rooted at seed + uint64(p * 1000); recompute
  // through that path and compare the aggregates bit for bit.
  const auto rows = harness::required_queries_sweep(
      {100, 316, 1000}, 2,
      [](Index nn) { return pooling::sublinear_k(nn, 0.25); },
      [](Index nn) { return pooling::paper_design(nn); },
      [](Index, Index) { return noise::make_z_channel(0.1); },
      42 + static_cast<std::uint64_t>(0.1 * 1000.0));
  for (std::size_t ni = 0; ni < rows.size(); ++ni) {
    const Json& cell = cells.at(ni);
    EXPECT_EQ(cell.at("n").as_int(), rows[ni].n);
    EXPECT_EQ(cell.at("k").as_int(), rows[ni].k);
    EXPECT_DOUBLE_EQ(cell.at("p").as_double(), 0.1);
    const Json& m = cell.at("metrics").at("m");
    EXPECT_EQ(m.at("median").as_double(), rows[ni].summary.median);
    EXPECT_EQ(m.at("q1").as_double(), rows[ni].summary.q1);
    EXPECT_EQ(m.at("q3").as_double(), rows[ni].summary.q3);
    EXPECT_EQ(m.at("mean").as_double(), rows[ni].mean_m);
  }
}

TEST(EngineAgreementTest, Fig3CellsMatchLegacySweepDerivation) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"fig3"};
  request.config.seed = 42;
  request.config.reps = 2;
  request.config.threads = 2;
  request.overrides.push_back({"fig3", "max_n", "316"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  // log_grid(100, 316, 2) has 2 points; series = {noiseless, lambda=1}.
  ASSERT_EQ(cells.size(), 4u);

  // Cells 2..3 are the noisy series (lambda = 1): the reference loop is
  // required_queries_sweep rooted at seed + uint64(lambda * 977);
  // recompute through that path and compare the aggregates bit for bit.
  const auto rows = harness::required_queries_sweep(
      {100, 316}, 2,
      [](Index nn) { return pooling::sublinear_k(nn, 0.25); },
      [](Index nn) { return pooling::paper_design(nn); },
      [](Index, Index) { return noise::make_gaussian_channel(1.0); },
      42 + static_cast<std::uint64_t>(1.0 * 977.0));
  for (std::size_t ni = 0; ni < rows.size(); ++ni) {
    const Json& cell = cells.at(rows.size() + ni);
    EXPECT_EQ(cell.at("n").as_int(), rows[ni].n);
    EXPECT_DOUBLE_EQ(cell.at("lambda").as_double(), 1.0);
    const Json& m = cell.at("metrics").at("m");
    EXPECT_EQ(m.at("median").as_double(), rows[ni].summary.median);
    EXPECT_EQ(m.at("q1").as_double(), rows[ni].summary.q1);
    EXPECT_EQ(m.at("q3").as_double(), rows[ni].summary.q3);
    EXPECT_EQ(m.at("mean").as_double(), rows[ni].mean_m);
  }
}

TEST(EngineAgreementTest, Fig4CellsMatchLegacySweepDerivation) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"fig4"};
  request.config.seed = 42;
  request.config.reps = 2;
  request.config.threads = 2;
  request.overrides.push_back({"fig4", "max_n", "100"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  ASSERT_EQ(cells.size(), 5u);  // 5 q levels x log_grid(100, 100, 2)

  // Cell 0 is q = 0.1 at n = 100: the reference loop is a single-point
  // required_queries_sweep rooted at seed + uint64(-log10(q)*131) + n
  // with the 20x-theory cap and channel-aware centering; recompute
  // through that path and compare the aggregates bit for bit.
  const double q = 0.1;
  const Index n = 100;
  const double theory =
      core::theory::channel_sublinear_interpolated(n, 0.25, q, q, 0.05);
  harness::RequiredQueriesOptions options;
  options.max_queries =
      std::max<Index>(5000, static_cast<Index>(20.0 * theory));
  options.centering =
      core::Centering{.offset_per_slot = q, .gain = 1.0 - 2.0 * q};
  const auto rows = harness::required_queries_sweep(
      {n}, 2, [](Index nn) { return pooling::sublinear_k(nn, 0.25); },
      [](Index nn) { return pooling::paper_design(nn); },
      [q](Index, Index) { return noise::make_bitflip_channel(q, q); },
      42 + static_cast<std::uint64_t>(-std::log10(q) * 131.0) +
          static_cast<std::uint64_t>(n),
      options);
  const Json& cell = cells.at(0);
  EXPECT_EQ(cell.at("n").as_int(), n);
  EXPECT_DOUBLE_EQ(cell.at("q").as_double(), q);
  EXPECT_DOUBLE_EQ(cell.at("theory_interpolated").as_double(), theory);
  const Json& m = cell.at("metrics").at("m");
  EXPECT_EQ(m.at("median").as_double(), rows[0].summary.median);
  EXPECT_EQ(m.at("q1").as_double(), rows[0].summary.q1);
  EXPECT_EQ(m.at("q3").as_double(), rows[0].summary.q3);
  EXPECT_EQ(m.at("mean").as_double(), rows[0].mean_m);
}

TEST(EngineAgreementTest, Fig6CellsMatchLegacySuccessSweep) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"fig6"};
  request.config.seed = 42;
  request.config.reps = 3;
  request.config.threads = 2;
  request.overrides.push_back({"fig6", "n", "150"});
  request.overrides.push_back({"fig6", "m_step", "40"});
  request.overrides.push_back({"fig6", "m_max", "120"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  // 3 p levels x 2 solvers x ms {40, 80, 120}.
  ASSERT_EQ(cells.size(), 18u);

  // The p = 0.1 series: the reference loop is success_sweep rooted at
  // seed + uint64(p * 4051) — once per algorithm, same root.  The
  // engine's greedy series is cells 0..2, the AMP series cells 3..5.
  const Index n = 150;
  const Index k = pooling::sublinear_k(n, 0.25);
  const std::vector<Index> ms{40, 80, 120};
  const auto seed = std::uint64_t{42} +
                    static_cast<std::uint64_t>(0.1 * 4051.0);
  const auto design_of_n = [](Index nn) {
    return pooling::paper_design(nn);
  };
  const auto factory = [](Index, Index) {
    return noise::make_z_channel(0.1);
  };
  const auto greedy = harness::success_sweep(
      n, k, ms, 3, design_of_n, factory, harness::Algorithm::Greedy, seed);
  const auto amp = harness::success_sweep(
      n, k, ms, 3, design_of_n, factory, harness::Algorithm::Amp, seed);
  for (std::size_t mi = 0; mi < ms.size(); ++mi) {
    const Json& greedy_cell = cells.at(mi);
    EXPECT_EQ(greedy_cell.at("m").as_int(), ms[mi]);
    EXPECT_DOUBLE_EQ(greedy_cell.at("p").as_double(), 0.1);
    EXPECT_EQ(greedy_cell.at("solver").as_string(), "greedy");
    EXPECT_DOUBLE_EQ(
        greedy_cell.at("metrics").at("success").at("mean").as_double(),
        greedy[mi].success_rate);
    EXPECT_DOUBLE_EQ(
        greedy_cell.at("metrics").at("overlap").at("mean").as_double(),
        greedy[mi].mean_overlap);

    const Json& amp_cell = cells.at(ms.size() + mi);
    EXPECT_EQ(amp_cell.at("solver").as_string(), "amp");
    EXPECT_DOUBLE_EQ(
        amp_cell.at("metrics").at("success").at("mean").as_double(),
        amp[mi].success_rate);
    EXPECT_DOUBLE_EQ(
        amp_cell.at("metrics").at("overlap").at("mean").as_double(),
        amp[mi].mean_overlap);
  }
}

TEST(EngineAgreementTest, Abl1CellsMatchLegacySweepDerivation) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"abl1"};
  request.config.seed = 42;
  request.config.reps = 2;
  request.config.threads = 2;
  request.overrides.push_back({"abl1", "n", "150"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  ASSERT_EQ(cells.size(), 6u);  // the legacy fraction roster

  // Cell 0 is fraction 0.05: the reference loop is a single-point
  // required_queries_sweep over the with-replacement fractional design,
  // rooted at seed + uint64(fraction * 1000); recompute through that
  // path and compare the aggregates bit for bit.
  const auto rows = harness::required_queries_sweep(
      {150}, 2, [](Index nn) { return pooling::sublinear_k(nn, 0.25); },
      [](Index nn) {
        return pooling::fractional_design(
            nn, 0.05, pooling::SamplingMode::WithReplacement);
      },
      [](Index, Index) { return noise::make_z_channel(0.1); },
      42 + static_cast<std::uint64_t>(0.05 * 1000.0));
  const Json& cell = cells.at(0);
  EXPECT_DOUBLE_EQ(cell.at("fraction").as_double(), 0.05);
  EXPECT_DOUBLE_EQ(cell.at("gamma").as_double(), 0.05 * 150.0);
  const Json& m = cell.at("metrics").at("m");
  EXPECT_EQ(m.at("median").as_double(), rows[0].summary.median);
  EXPECT_EQ(m.at("q1").as_double(), rows[0].summary.q1);
  EXPECT_EQ(m.at("q3").as_double(), rows[0].summary.q3);
  EXPECT_EQ(m.at("mean").as_double(), rows[0].mean_m);
}

TEST(EngineAgreementTest, Abl2CellsMatchLegacyDesignComparison) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"abl2"};
  request.config.seed = 42;
  request.config.reps = 2;
  request.config.threads = 2;
  request.overrides.push_back({"abl2", "n", "150"});
  request.overrides.push_back({"abl2", "m_step", "40"});
  request.overrides.push_back({"abl2", "m_max", "80"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  ASSERT_EQ(cells.size(), 8u);  // 4 designs x ms {40, 80}

  const Index n = 150;
  const Index k = pooling::sublinear_k(n, 0.25);
  const std::vector<Index> ms{40, 80};
  const auto factory = [](Index, Index) {
    return noise::make_z_channel(0.1);
  };
  // Series 0-2 replicate the legacy success_sweep calls (seeds
  // seed / seed+1 / seed+3 for with / without / Bernoulli).
  const auto with_points = harness::success_sweep(
      n, k, ms, 2, [](Index nn) { return pooling::paper_design(nn); },
      factory, harness::Algorithm::Greedy, 42);
  const auto without_points = harness::success_sweep(
      n, k, ms, 2,
      [](Index nn) {
        return pooling::fractional_design(
            nn, 0.5, pooling::SamplingMode::WithoutReplacement);
      },
      factory, harness::Algorithm::Greedy, 43);
  const auto bernoulli_points = harness::success_sweep(
      n, k, ms, 2,
      [](Index nn) {
        return pooling::fractional_design(nn, 0.5,
                                          pooling::SamplingMode::Bernoulli);
      },
      factory, harness::Algorithm::Greedy, 45);
  const std::vector<const std::vector<harness::SuccessPoint>*> series{
      &with_points, &without_points, &bernoulli_points};
  for (std::size_t si = 0; si < series.size(); ++si) {
    for (std::size_t mi = 0; mi < ms.size(); ++mi) {
      const Json& cell = cells.at(si * ms.size() + mi);
      EXPECT_EQ(cell.at("m").as_int(), ms[mi]);
      EXPECT_DOUBLE_EQ(
          cell.at("metrics").at("success").at("mean").as_double(),
          (*series[si])[mi].success_rate);
      EXPECT_DOUBLE_EQ(
          cell.at("metrics").at("overlap").at("mean").as_double(),
          (*series[si])[mi].mean_overlap);
    }
  }

  // Series 3 replicates the legacy hand-rolled constant-column-weight
  // loop: root Rng(seed + 2 + mi*131), per-agent weight ~ gamma * m.
  const auto channel = noise::make_z_channel(0.1);
  for (std::size_t mi = 0; mi < ms.size(); ++mi) {
    const Index m = ms[mi];
    const Index weight = std::max<Index>(
        1, static_cast<Index>(core::theory::gamma_constant() *
                              static_cast<double>(m)));
    double successes = 0.0;
    const rand::Rng root(42 + 2 + static_cast<std::uint64_t>(mi) * 131);
    for (Index rep = 0; rep < 2; ++rep) {
      rand::Rng rng = root.derive(static_cast<std::uint64_t>(rep));
      core::Instance instance;
      instance.truth = pooling::make_ground_truth(n, k, rng);
      instance.graph = pooling::make_constant_column_weight_graph(
          n, m, std::min(weight, m), rng);
      instance.results = core::measure_all(instance.graph, instance.truth,
                                           *channel, rng);
      const auto result = core::greedy_reconstruct(instance);
      successes +=
          core::exact_success(result.estimate, instance.truth) ? 1.0 : 0.0;
    }
    const Json& cell = cells.at(3 * ms.size() + mi);
    EXPECT_EQ(cell.at("design").as_string(), "constant_column_weight");
    EXPECT_DOUBLE_EQ(
        cell.at("metrics").at("success").at("mean").as_double(),
        successes / 2.0);
  }
}

TEST(EngineAgreementTest, Abl3CellsMatchLegacyCenteringComparison) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"abl3"};
  request.config.seed = 42;
  request.config.reps = 2;
  request.config.threads = 2;
  request.overrides.push_back({"abl3", "n", "150"});
  request.overrides.push_back({"abl3", "m_step", "400"});
  request.overrides.push_back({"abl3", "m_max", "400"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  ASSERT_EQ(cells.size(), 1u);

  // Replicate the legacy compare_scorings loop for the single cell
  // (m index 0, so the root is Rng(seed + 0*17) = Rng(seed)): all three
  // centering variants on the same instance per rep.
  const Index n = 150;
  const Index k = pooling::sublinear_k(n, 0.25);
  const noise::BitFlipChannel channel(0.1, 0.05);
  const core::Centering aware_centering{.offset_per_slot = 0.05,
                                        .gain = 1.0 - 0.1 - 0.05};
  double raw = 0.0;
  double oblivious = 0.0;
  double aware = 0.0;
  const rand::Rng root(42);
  for (Index rep = 0; rep < 2; ++rep) {
    rand::Rng rng = root.derive(static_cast<std::uint64_t>(rep));
    const core::Instance instance = core::make_instance(
        n, k, 400, pooling::paper_design(n), channel, rng);
    const core::ScoreState oblivious_scores = core::compute_scores(instance);
    const core::ScoreState aware_scores =
        core::compute_scores(instance, aware_centering);
    const auto success = [&](const BitVector& est) {
      return core::exact_success(est, instance.truth) ? 1.0 : 0.0;
    };
    raw += success(
        core::select_top_k(oblivious_scores.raw_psi(), k).estimate);
    oblivious += success(
        core::select_top_k(oblivious_scores.centered_scores(), k).estimate);
    aware += success(
        core::select_top_k(aware_scores.centered_scores(), k).estimate);
  }
  const Json& metrics = cells.at(0).at("metrics");
  EXPECT_DOUBLE_EQ(metrics.at("raw_success").at("mean").as_double(),
                   raw / 2.0);
  EXPECT_DOUBLE_EQ(metrics.at("oblivious_success").at("mean").as_double(),
                   oblivious / 2.0);
  EXPECT_DOUBLE_EQ(metrics.at("aware_success").at("mean").as_double(),
                   aware / 2.0);
}

TEST(EngineAgreementTest, Abl4CellsMatchLegacySuccessSweeps) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"abl4"};
  request.config.seed = 42;
  request.config.reps = 2;
  request.config.threads = 2;
  request.overrides.push_back({"abl4", "n", "150"});
  request.overrides.push_back({"abl4", "m_step", "40"});
  request.overrides.push_back({"abl4", "m_max", "80"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  ASSERT_EQ(cells.size(), 6u);  // 3 solvers x ms {40, 80}

  // The reference is three success_sweeps (greedy, two-stage, AMP)
  // off the same base seed; recompute through that path per series.
  const Index n = 150;
  const Index k = pooling::sublinear_k(n, 0.25);
  const std::vector<Index> ms{40, 80};
  const auto design_of_n = [](Index nn) {
    return pooling::paper_design(nn);
  };
  const auto factory = [](Index, Index) {
    return noise::make_z_channel(0.3);
  };
  const std::vector<harness::Algorithm> algorithms{
      harness::Algorithm::Greedy, harness::Algorithm::TwoStage,
      harness::Algorithm::Amp};
  const std::vector<std::string> names{"greedy", "two_stage", "amp"};
  for (std::size_t si = 0; si < algorithms.size(); ++si) {
    const auto points = harness::success_sweep(
        n, k, ms, 2, design_of_n, factory, algorithms[si], 42);
    for (std::size_t mi = 0; mi < ms.size(); ++mi) {
      const Json& cell = cells.at(si * ms.size() + mi);
      EXPECT_EQ(cell.at("m").as_int(), ms[mi]);
      EXPECT_EQ(cell.at("solver").as_string(), names[si]);
      EXPECT_DOUBLE_EQ(
          cell.at("metrics").at("success").at("mean").as_double(),
          points[mi].success_rate);
      EXPECT_DOUBLE_EQ(
          cell.at("metrics").at("overlap").at("mean").as_double(),
          points[mi].mean_overlap);
    }
  }
}

TEST(EngineAgreementTest, Abl5CellsMatchLegacySweepDerivation) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"abl5"};
  request.config.seed = 42;
  request.config.reps = 2;
  request.config.threads = 2;
  request.overrides.push_back({"abl5", "n", "150"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  ASSERT_EQ(cells.size(), 11u);  // the legacy lambda roster

  // Cell 1 is lambda = 1: the reference loop is a single-point
  // success_sweep rooted at seed + uint64(lambda * 97) at the fixed
  // m = ceil(2 * noisy-query bound); recompute through that path.
  const Index n = 150;
  const Index k = pooling::sublinear_k(n, 0.25);
  const auto m = static_cast<Index>(
      std::ceil(2.0 * core::theory::noisy_query_sublinear(n, 0.25, 0.1)));
  const auto points = harness::success_sweep(
      n, k, {m}, 2, [](Index nn) { return pooling::paper_design(nn); },
      [](Index, Index) { return noise::make_gaussian_channel(1.0); },
      harness::Algorithm::Greedy,
      42 + static_cast<std::uint64_t>(1.0 * 97.0));
  const Json& cell = cells.at(1);
  EXPECT_DOUBLE_EQ(cell.at("lambda").as_double(), 1.0);
  EXPECT_EQ(cell.at("m").as_int(), m);
  EXPECT_DOUBLE_EQ(cell.at("ratio").as_double(),
                   core::theory::noisy_query_noise_ratio(
                       1.0, static_cast<double>(m), n));
  EXPECT_DOUBLE_EQ(
      cell.at("metrics").at("success").at("mean").as_double(),
      points[0].success_rate);
  EXPECT_DOUBLE_EQ(
      cell.at("metrics").at("overlap").at("mean").as_double(),
      points[0].mean_overlap);
}

TEST(EngineAgreementTest, Abl6CellsMatchLegacyDenoiserVariants) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  BatchRequest request;
  request.scenario_names = {"abl6"};
  request.config.seed = 42;
  request.config.reps = 2;
  request.config.threads = 2;
  request.overrides.push_back({"abl6", "n", "150"});
  request.overrides.push_back({"abl6", "m_step", "40"});
  request.overrides.push_back({"abl6", "m_max", "40"});
  const RunReport report = run_batch(registry, request);
  const Json& cells = report.scenarios[0].aggregates.at("cells");
  ASSERT_EQ(cells.size(), 1u);

  // Replicate the legacy run_variant loop for the single cell (m index
  // 0: root Rng(seed + 0*71) = Rng(seed)).  Each variant re-derives the
  // identical rep stream, so all three see the same instance.
  const Index n = 150;
  const Index k = pooling::sublinear_k(n, 0.25);
  const Index m = 40;
  const double pi = static_cast<double>(k) / static_cast<double>(n);
  const noise::BitFlipChannel channel(0.1, 0.0);
  const auto lin = channel.linearization(n, k, n / 2);
  const amp::BayesBernoulliDenoiser bayes(pi);
  const amp::SoftThresholdDenoiser soft(1.5);
  const auto run_variant = [&](const amp::Denoiser& denoiser,
                               double damping) {
    amp::AmpOptions options;
    options.damping = damping;
    double successes = 0.0;
    const rand::Rng root(42);
    for (Index rep = 0; rep < 2; ++rep) {
      rand::Rng rng = root.derive(static_cast<std::uint64_t>(rep));
      const core::Instance instance = core::make_instance(
          n, k, m, pooling::paper_design(n), channel, rng);
      const amp::AmpProblem problem = amp::standardize(instance, lin);
      const amp::AmpResult result = amp::run_amp(problem, denoiser, options);
      successes +=
          core::exact_success(result.estimate, instance.truth) ? 1.0 : 0.0;
    }
    return successes / 2.0;
  };
  const Json& cell = cells.at(0);
  const Json& metrics = cell.at("metrics");
  EXPECT_DOUBLE_EQ(metrics.at("bayes_success").at("mean").as_double(),
                   run_variant(bayes, 1.0));
  EXPECT_DOUBLE_EQ(metrics.at("soft_success").at("mean").as_double(),
                   run_variant(soft, 1.0));
  EXPECT_DOUBLE_EQ(
      metrics.at("bayes_damped_success").at("mean").as_double(),
      run_variant(bayes, 0.7));

  // The SE fixed point in the cell metadata replicates the
  // deterministic state-evolution computation.
  const double gamma_pool = static_cast<double>(n) / 2.0;
  const double entry_var = gamma_pool / static_cast<double>(n) *
                           (1.0 - 1.0 / static_cast<double>(n));
  const double s2 = static_cast<double>(m) * entry_var;
  amp::StateEvolutionParams params;
  params.pi = pi;
  params.n_over_m = static_cast<double>(n) / static_cast<double>(m);
  params.noise_var = lin.noise_var / (lin.gain * lin.gain * s2);
  const auto se = amp::run_state_evolution(params, bayes);
  EXPECT_DOUBLE_EQ(cell.at("se_tau2").as_double(), se.tau2.back());
}

TEST(RunBatchTest, SolverSweepSelectsSolverByParameter) {
  const auto run = [](const std::string& solver) {
    ScenarioRegistry registry;
    register_builtin_scenarios(registry);
    BatchRequest request;
    request.scenario_names = {"solver_sweep"};
    request.config.seed = 7;
    request.config.reps = 2;
    request.overrides.push_back({"solver_sweep", "solver", solver});
    request.overrides.push_back({"solver_sweep", "n_lo", "120"});
    request.overrides.push_back({"solver_sweep", "n_hi", "120"});
    return run_batch(registry, request);
  };

  // The estimate path is exercised end-to-end for a centralized and a
  // distributed solver; the distributed one adds network-cost metrics.
  const RunReport greedy = run("greedy");
  const Json& greedy_cell =
      greedy.scenarios[0].aggregates.at("cells").at(0);
  EXPECT_EQ(greedy_cell.at("solver").as_string(), "greedy");
  EXPECT_EQ(greedy_cell.at("metrics").find("net_messages"), nullptr);

  const RunReport dist = run("dist_greedy");
  const Json& dist_cell = dist.scenarios[0].aggregates.at("cells").at(0);
  ASSERT_NE(dist_cell.at("metrics").find("net_messages"), nullptr);
  EXPECT_GT(dist_cell.at("metrics")
                .at("net_messages")
                .at("mean")
                .as_double(),
            0.0);
  // dist_greedy is bit-identical to greedy, so success/overlap agree.
  EXPECT_EQ(greedy_cell.at("metrics").at("overlap").dump(2),
            dist_cell.at("metrics").at("overlap").dump(2));

  EXPECT_THROW((void)run("no_such_solver"), std::invalid_argument);
}

TEST(RunBatchTest, BadScenarioParametersAreInvalidArguments) {
  const auto run = [](const char* scenario, const char* name,
                      const char* value) {
    ScenarioRegistry registry;
    register_builtin_scenarios(registry);
    BatchRequest request;
    request.scenario_names = {scenario};
    request.overrides.push_back({scenario, name, value});
    return run_batch(registry, request);
  };
  // User input must surface as invalid_argument before any job runs,
  // never as a ContractViolation from deep library code.
  EXPECT_THROW((void)run("solver_sweep", "n_hi", "50"),
               std::invalid_argument);
  EXPECT_THROW((void)run("solver_sweep", "theta", "2"),
               std::invalid_argument);
  EXPECT_THROW((void)run("solver_sweep", "n_ppd", "0"),
               std::invalid_argument);
  EXPECT_THROW((void)run("solver_sweep", "channel", "z:1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)run("fig2", "max_n", "50"), std::invalid_argument);
  EXPECT_THROW((void)run("fig3", "ppd", "0"), std::invalid_argument);
  EXPECT_THROW((void)run("fig3", "lambda", "-1"), std::invalid_argument);
  EXPECT_THROW((void)run("fixed_m", "theta", "0"), std::invalid_argument);
  EXPECT_THROW((void)run("fixed_m", "p", "1"), std::invalid_argument);
  EXPECT_THROW((void)run("abl7", "p", "1.5"), std::invalid_argument);
  EXPECT_THROW((void)run("abl7", "theta", "2"), std::invalid_argument);
  EXPECT_THROW((void)run("abl7", "max_n", "50"), std::invalid_argument);
  EXPECT_THROW((void)run("fig5", "theta", "0"), std::invalid_argument);
  // The error names the scenario that was run, aliases included.
  try {
    (void)run("fixed_m_amp", "m_points", "0");
    ADD_FAILURE() << "fixed_m_amp accepted m_points = 0";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind("fixed_m_amp: ", 0), 0u)
        << error.what();
  }
}

TEST(RunBatchTest, FixedMSolverParameterIsPlumbedThrough) {
  const auto run = [](const char* scenario,
                      const std::vector<ParamOverride>& extra) {
    ScenarioRegistry registry;
    register_builtin_scenarios(registry);
    BatchRequest request;
    request.scenario_names = {scenario};
    request.config.seed = 3;
    request.config.reps = 2;
    request.overrides.push_back({scenario, "n", "150"});
    request.overrides.push_back({scenario, "m_points", "2"});
    for (const ParamOverride& o : extra) {
      request.overrides.push_back(o);
    }
    return run_batch(registry, request);
  };

  // Selecting the solver purely via the parameter: fixed_m with
  // solver=greedy (the default) and with solver=dist_greedy agree on all
  // aggregates (the distributed execution is bit-identical), while bad
  // solver names/options are hard errors raised before any job runs.
  const RunReport by_default = run("fixed_m", {});
  const RunReport by_param =
      run("fixed_m", {{"fixed_m", "solver", "dist_greedy"}});
  EXPECT_EQ(by_default.scenarios[0].aggregates.dump(2),
            by_param.scenarios[0].aggregates.dump(2));

  EXPECT_THROW(
      (void)run("fixed_m", {{"fixed_m", "solver", "no_such_solver"}}),
      std::invalid_argument);
  EXPECT_THROW((void)run("fixed_m", {{"fixed_m", "solver_params",
                                      "no_such_option=1"}}),
               std::invalid_argument);
}

TEST(RunBatchTest, DuplicateScenarioSelectionThrows) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<TestScenario>());
  BatchRequest request;
  request.scenario_names = {"test_scenario", "test_scenario"};
  EXPECT_THROW((void)run_batch(registry, request), std::invalid_argument);
}

}  // namespace
}  // namespace npd::engine
