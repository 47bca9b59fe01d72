// Micro-benchmarks (google-benchmark) of the hot kernels: query
// sampling, pooling-graph construction, incremental score updates, top-k
// selection, sorting-network generation/application, the matrix-free
// AMP design operator (the AMP inner loop), channel measurement, and the
// end-to-end required-queries protocol at small n.

#include <benchmark/benchmark.h>

#include <vector>

#include "amp/amp.hpp"
#include "core/greedy.hpp"
#include "core/instance.hpp"
#include "core/scores.hpp"
#include "harness/required_queries.hpp"
#include "netsim/sorting_network.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/pooling_graph.hpp"
#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "solve/design_spec.hpp"

namespace {

using namespace npd;

void BM_SampleQuery(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  rand::Rng rng(1);
  const pooling::QueryDesign design = pooling::paper_design(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pooling::sample_query(design, n, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          design.gamma);
}
BENCHMARK(BM_SampleQuery)->Arg(1000)->Arg(10000);

// The whole pooling layer's graph build (draws, per-query dedup, agent
// CSR) at n = 1000, m = 300, for a `design=` spec; items are edges.
void BM_BuildPoolingGraph(benchmark::State& state, const char* spec) {
  const Index n = 1000;
  const Index m = 300;
  const pooling::GraphDesign design =
      solve::parse_design_spec(spec).instantiate(n);
  rand::Rng rng(9);
  std::int64_t edges = 0;
  for (auto _ : state) {
    const pooling::PoolingGraph graph =
        pooling::build_design_graph(n, m, design, rng);
    edges += graph.num_edges();
    benchmark::DoNotOptimize(graph.num_edges());
  }
  state.SetItemsProcessed(edges);
}
BENCHMARK_CAPTURE(BM_BuildPoolingGraph, paper, "paper");
BENCHMARK_CAPTURE(BM_BuildPoolingGraph, regular6, "regular:6");

void BM_ScoreStateApplyQuery(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  rand::Rng rng(2);
  const pooling::QueryDesign design = pooling::paper_design(n);
  core::ScoreState scores(n, pooling::sublinear_k(n, 0.25));
  const auto query = pooling::sample_query(design, n, rng);
  for (auto _ : state) {
    scores.apply_query(query, 42.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          design.gamma);
}
BENCHMARK(BM_ScoreStateApplyQuery)->Arg(1000)->Arg(10000);

void BM_SelectTopK(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  rand::Rng rng(3);
  std::vector<double> scores(static_cast<std::size_t>(n));
  for (auto& s : scores) {
    s = rng.uniform_real();
  }
  const Index k = pooling::sublinear_k(n, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::select_top_k(scores, k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SelectTopK)->Arg(1000)->Arg(100000);

void BM_OddEvenScheduleGeneration(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(netsim::make_odd_even_schedule(n));
  }
}
BENCHMARK(BM_OddEvenScheduleGeneration)->Arg(1024)->Arg(16384);

void BM_SortingNetworkApply(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const netsim::SortingSchedule schedule = netsim::make_odd_even_schedule(n);
  rand::Rng rng(4);
  std::vector<double> base(static_cast<std::size_t>(n));
  for (auto& v : base) {
    v = rng.uniform_real();
  }
  for (auto _ : state) {
    std::vector<double> values = base;
    netsim::apply_schedule(schedule, values);
    benchmark::DoNotOptimize(values);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          schedule.comparator_count());
}
BENCHMARK(BM_SortingNetworkApply)->Arg(1024)->Arg(8192);

// One AMP iteration's pair of products, B·x and Bᵀ·z, with the
// matrix-free standardized design at n = 1000, m = 300 for a `design=`
// spec; items are the nonzeros of the counting matrix.
void BM_AmpOperator(benchmark::State& state, const char* spec) {
  const Index n = 1000;
  const Index k = pooling::sublinear_k(n, 0.25);
  const Index m = 300;
  const pooling::GraphDesign design =
      solve::parse_design_spec(spec).instantiate(n);
  rand::Rng rng(5);
  const auto channel = noise::make_noiseless();
  const core::Instance instance =
      core::make_instance(n, k, m, design, *channel, rng);
  const amp::AmpProblem problem =
      amp::standardize(instance, channel->linearization(n, k, n / 2));
  std::int64_t nnz = 0;
  for (Index j = 0; j < m; ++j) {
    nnz += static_cast<std::int64_t>(instance.graph.query_distinct(j).size());
  }
  std::vector<double> x(static_cast<std::size_t>(n), 0.5);
  std::vector<double> z(static_cast<std::size_t>(m), 0.25);
  std::vector<double> bx(static_cast<std::size_t>(m));
  std::vector<double> btz(static_cast<std::size_t>(n));
  for (auto _ : state) {
    problem.b.matvec(x, bx);
    problem.b.matvec_transpose(z, btz);
    benchmark::DoNotOptimize(bx.data());
    benchmark::DoNotOptimize(btz.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          nnz);
}
BENCHMARK_CAPTURE(BM_AmpOperator, paper, "paper");
BENCHMARK_CAPTURE(BM_AmpOperator, regular6, "regular:6");

void BM_ChannelMeasureBitFlip(benchmark::State& state) {
  const Index n = 1000;
  rand::Rng rng(6);
  const pooling::GroundTruth truth = pooling::make_ground_truth(n, 6, rng);
  const auto query = pooling::sample_query(pooling::paper_design(n), n, rng);
  const noise::BitFlipChannel channel(0.1, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.measure(query, truth.bits, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(query.size()));
}
BENCHMARK(BM_ChannelMeasureBitFlip);

void BM_ChannelMeasureGaussian(benchmark::State& state) {
  const Index n = 1000;
  rand::Rng rng(7);
  const pooling::GroundTruth truth = pooling::make_ground_truth(n, 6, rng);
  const auto query = pooling::sample_query(pooling::paper_design(n), n, rng);
  const noise::GaussianQueryChannel channel(2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.measure(query, truth.bits, rng));
  }
}
BENCHMARK(BM_ChannelMeasureGaussian);

void BM_RequiredQueriesProtocol(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const Index k = pooling::sublinear_k(n, 0.25);
  const auto channel = noise::make_z_channel(0.1);
  std::uint64_t rep = 0;
  for (auto _ : state) {
    rand::Rng rng(1000 + rep++);
    benchmark::DoNotOptimize(harness::required_queries(
        n, k, pooling::paper_design(n), *channel, rng));
  }
}
BENCHMARK(BM_RequiredQueriesProtocol)->Arg(300)->Arg(1000);

void BM_AmpIteration(benchmark::State& state) {
  const Index n = 1000;
  const Index k = pooling::sublinear_k(n, 0.25);
  const Index m = 300;
  rand::Rng rng(8);
  const noise::BitFlipChannel channel(0.1, 0.0);
  const core::Instance instance =
      core::make_instance(n, k, m, pooling::paper_design(n), channel, rng);
  const amp::AmpProblem problem =
      amp::standardize(instance, channel.linearization(n, k, n / 2));
  const amp::BayesBernoulliDenoiser denoiser(problem.pi);
  amp::AmpOptions options;
  options.max_iterations = 1;
  options.convergence_tol = 0.0;  // force exactly one iteration
  for (auto _ : state) {
    benchmark::DoNotOptimize(amp::run_amp(problem, denoiser, options));
  }
}
BENCHMARK(BM_AmpIteration);

}  // namespace
