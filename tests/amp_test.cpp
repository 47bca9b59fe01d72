// Tests for the AMP baseline: denoiser calculus (closed forms + finite
// differences), the exactness of the centering/scaling preprocessing,
// the matrix-free design operator against a dense reference kept here,
// convergence of the iteration on easy instances, and agreement between
// the state-evolution prediction and the empirical τ trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "amp/amp.hpp"
#include "amp/denoiser.hpp"
#include "amp/preprocess.hpp"
#include "amp/state_evolution.hpp"
#include "core/evaluation.hpp"
#include "core/greedy.hpp"
#include "core/instance.hpp"
#include "linalg/vector_ops.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/pooling_graph.hpp"
#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "solve/design_spec.hpp"
#include "util/assert.hpp"

namespace npd::amp {
namespace {

rand::Rng test_rng(std::uint64_t tag = 0) { return rand::Rng(0xA3B + tag); }

// --------------------------------------------------------------- denoiser

TEST(BayesDenoiserTest, OutputIsPosteriorInUnitInterval) {
  const BayesBernoulliDenoiser d(0.1);
  for (const double y : {-5.0, -1.0, 0.0, 0.5, 1.0, 2.0, 6.0}) {
    const double e = d.eta(y, 0.5);
    EXPECT_GT(e, 0.0);
    EXPECT_LT(e, 1.0);
  }
}

TEST(BayesDenoiserTest, MonotoneInY) {
  const BayesBernoulliDenoiser d(0.2);
  double prev = 0.0;
  for (double y = -3.0; y <= 4.0; y += 0.25) {
    const double e = d.eta(y, 0.7);
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST(BayesDenoiserTest, SymmetryPointAtHalfForUniformPrior) {
  // With π = 1/2 the posterior at y = 1/2 is exactly 1/2.
  const BayesBernoulliDenoiser d(0.5);
  EXPECT_NEAR(d.eta(0.5, 0.3), 0.5, 1e-12);
}

TEST(BayesDenoiserTest, SmallNoiseSharpensDecision) {
  const BayesBernoulliDenoiser d(0.1);
  EXPECT_GT(d.eta(1.0, 0.01), 0.999);
  EXPECT_LT(d.eta(0.0, 0.01), 0.001);
}

TEST(BayesDenoiserTest, LargeNoiseReturnsPrior) {
  const BayesBernoulliDenoiser d(0.3);
  EXPECT_NEAR(d.eta(0.7, 1e6), 0.3, 1e-3);
}

TEST(BayesDenoiserTest, DerivativeMatchesFiniteDifference) {
  const BayesBernoulliDenoiser d(0.15);
  const double tau2 = 0.4;
  for (const double y : {-1.0, 0.0, 0.3, 0.5, 1.0, 2.0}) {
    const double h = 1e-6;
    const double fd = (d.eta(y + h, tau2) - d.eta(y - h, tau2)) / (2.0 * h);
    EXPECT_NEAR(d.eta_prime(y, tau2), fd, 1e-5) << "y=" << y;
  }
}

TEST(BayesDenoiserTest, RejectsDegenerateParams) {
  EXPECT_THROW(BayesBernoulliDenoiser(0.0), ContractViolation);
  EXPECT_THROW(BayesBernoulliDenoiser(1.0), ContractViolation);
  const BayesBernoulliDenoiser d(0.5);
  EXPECT_THROW((void)d.eta(0.0, 0.0), ContractViolation);
}

TEST(SoftThresholdTest, ShrinksAndKills) {
  const SoftThresholdDenoiser d(2.0);
  const double tau2 = 0.25;  // tau = 0.5, cut = 1.0
  EXPECT_DOUBLE_EQ(d.eta(3.0, tau2), 2.0);
  EXPECT_DOUBLE_EQ(d.eta(-3.0, tau2), -2.0);
  EXPECT_DOUBLE_EQ(d.eta(0.5, tau2), 0.0);
  EXPECT_DOUBLE_EQ(d.eta(-0.9, tau2), 0.0);
}

TEST(SoftThresholdTest, DerivativeIsIndicator) {
  const SoftThresholdDenoiser d(1.0);
  EXPECT_DOUBLE_EQ(d.eta_prime(2.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(d.eta_prime(0.5, 1.0), 0.0);
}

TEST(DenoiserFactoryTest, NamesIdentifyConfiguration) {
  EXPECT_NE(make_bayes_denoiser(0.1)->name().find("bayes"),
            std::string::npos);
  EXPECT_NE(make_soft_threshold_denoiser(1.5)->name().find("soft"),
            std::string::npos);
}

// ------------------------------------------------------------- preprocess

TEST(PreprocessTest, NoiselessStandardizationIsExact) {
  // For the noiseless channel, y = B·σ must hold *exactly* (the centering
  // uses the known k, so no approximation enters).
  auto rng = test_rng(1);
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      60, 6, 25, pooling::paper_design(60), *channel, rng);
  const AmpProblem problem =
      standardize(instance, channel->linearization(60, 6, 30));

  std::vector<double> sigma(60);
  for (Index i = 0; i < 60; ++i) {
    sigma[static_cast<std::size_t>(i)] =
        static_cast<double>(instance.truth.bits[static_cast<std::size_t>(i)]);
  }
  std::vector<double> b_sigma(25);
  problem.b.matvec(sigma, b_sigma);
  for (Index j = 0; j < 25; ++j) {
    EXPECT_NEAR(b_sigma[static_cast<std::size_t>(j)],
                problem.y[static_cast<std::size_t>(j)], 1e-9);
  }
  EXPECT_DOUBLE_EQ(problem.effective_noise_var, 0.0);
}

TEST(PreprocessTest, ColumnsHaveRoughlyUnitNorm) {
  auto rng = test_rng(2);
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      200, 10, 120, pooling::paper_design(200), *channel, rng);
  const AmpProblem problem =
      standardize(instance, channel->linearization(200, 10, 100));

  // ‖B e_c‖² through the forward product.
  double norm_sum = 0.0;
  std::vector<double> unit(static_cast<std::size_t>(problem.n), 0.0);
  std::vector<double> column(static_cast<std::size_t>(problem.m));
  for (Index c = 0; c < problem.n; ++c) {
    unit[static_cast<std::size_t>(c)] = 1.0;
    problem.b.matvec(unit, column);
    unit[static_cast<std::size_t>(c)] = 0.0;
    norm_sum += linalg::norm_squared(column);
  }
  EXPECT_NEAR(norm_sum / static_cast<double>(problem.n), 1.0, 0.1);
}

TEST(PreprocessTest, BitFlipChannelResidualIsCentered) {
  // Under the bit-flip channel, y − B·σ is the (standardized) channel
  // noise: it must be centered with roughly the predicted variance.
  auto rng = test_rng(3);
  const noise::BitFlipChannel channel(0.2, 0.1);
  const core::Instance instance = core::make_instance(
      400, 20, 300, pooling::paper_design(400), channel, rng);
  const AmpProblem problem =
      standardize(instance, channel.linearization(400, 20, 200));

  std::vector<double> sigma(400);
  for (Index i = 0; i < 400; ++i) {
    sigma[static_cast<std::size_t>(i)] =
        static_cast<double>(instance.truth.bits[static_cast<std::size_t>(i)]);
  }
  std::vector<double> b_sigma(300);
  problem.b.matvec(sigma, b_sigma);
  double mean_resid = 0.0;
  double var_resid = 0.0;
  for (Index j = 0; j < 300; ++j) {
    const double r = problem.y[static_cast<std::size_t>(j)] -
                     b_sigma[static_cast<std::size_t>(j)];
    mean_resid += r;
    var_resid += r * r;
  }
  mean_resid /= 300.0;
  var_resid = var_resid / 300.0 - mean_resid * mean_resid;
  // Per-residual std ≈ 0.5 after standardization; the mean of 300 draws
  // fluctuates at the 0.03 scale, so test at ±3σ.
  EXPECT_NEAR(mean_resid, 0.0, 0.09);
  EXPECT_NEAR(var_resid / problem.effective_noise_var, 1.0, 0.3);
}

TEST(PreprocessTest, PriorIsKOverN) {
  auto rng = test_rng(4);
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      50, 5, 10, pooling::paper_design(50), *channel, rng);
  const AmpProblem problem =
      standardize(instance, channel->linearization(50, 5, 25));
  EXPECT_DOUBLE_EQ(problem.pi, 0.1);
}

// A problem borrows its instance's graph, so temporaries are refused.
template <typename I>
concept Standardizable =
    requires(I&& instance, const noise::Linearization& lin) {
      standardize(std::forward<I>(instance), lin);
    };
static_assert(Standardizable<const core::Instance&>);
static_assert(!Standardizable<core::Instance>);

// -------------------------------------------------------- design operator

// Dense reference for the standardized design: B(j, i) = (A(j, i) − μ)/s
// stored row-major, with plain row-by-row products — the representation
// the matrix-free operator replaces.
struct DenseDesign {
  Index rows = 0;
  Index cols = 0;
  std::vector<double> b;

  explicit DenseDesign(const DesignOperator& op)
      : rows(op.rows()),
        cols(op.cols()),
        b(static_cast<std::size_t>(rows * cols), 0.0) {
    for (Index j = 0; j < rows; ++j) {
      const auto agents = op.graph->query_distinct(j);
      const auto counts = op.graph->query_multiplicity(j);
      for (std::size_t idx = 0; idx < agents.size(); ++idx) {
        at(j, agents[idx]) = static_cast<double>(counts[idx]);
      }
    }
    for (double& v : b) {
      v = (v - op.mean_entry) * op.inv_scale;
    }
  }

  double& at(Index j, Index i) {
    return b[static_cast<std::size_t>(j * cols + i)];
  }
  [[nodiscard]] double at(Index j, Index i) const {
    return b[static_cast<std::size_t>(j * cols + i)];
  }

  // B·x, or |B|·|x| (the scale of the rounding error) when `abs` is set.
  [[nodiscard]] std::vector<double> matvec(const std::vector<double>& x,
                                           bool abs = false) const {
    std::vector<double> out(static_cast<std::size_t>(rows), 0.0);
    for (Index j = 0; j < rows; ++j) {
      for (Index i = 0; i < cols; ++i) {
        const double term = at(j, i) * x[static_cast<std::size_t>(i)];
        out[static_cast<std::size_t>(j)] += abs ? std::abs(term) : term;
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<double> matvec_transpose(
      const std::vector<double>& z, bool abs = false) const {
    std::vector<double> out(static_cast<std::size_t>(cols), 0.0);
    for (Index j = 0; j < rows; ++j) {
      for (Index i = 0; i < cols; ++i) {
        const double term = at(j, i) * z[static_cast<std::size_t>(j)];
        out[static_cast<std::size_t>(i)] += abs ? std::abs(term) : term;
      }
    }
    return out;
  }
};

std::vector<double> random_vector(Index size, rand::Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(size));
  for (double& e : v) {
    e = 2.0 * rng.uniform_real() - 1.0;
  }
  return v;
}

// Forward and transposed products of `op` agree with the dense reference
// within 1e-12 relative to Σ|B_ji·v_i| (the products' rounding scale).
void expect_matches_dense(const DesignOperator& op, rand::Rng& rng) {
  const DenseDesign dense(op);
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> x = random_vector(op.cols(), rng);
    std::vector<double> bx(static_cast<std::size_t>(op.rows()));
    op.matvec(x, bx);
    const std::vector<double> ref = dense.matvec(x);
    const std::vector<double> scale = dense.matvec(x, true);
    for (std::size_t j = 0; j < bx.size(); ++j) {
      EXPECT_NEAR(bx[j], ref[j], 1e-12 * std::max(scale[j], 1e-300))
          << "row " << j;
    }

    const std::vector<double> z = random_vector(op.rows(), rng);
    std::vector<double> btz(static_cast<std::size_t>(op.cols()));
    op.matvec_transpose(z, btz);
    const std::vector<double> ref_t = dense.matvec_transpose(z);
    const std::vector<double> scale_t = dense.matvec_transpose(z, true);
    for (std::size_t i = 0; i < btz.size(); ++i) {
      EXPECT_NEAR(btz[i], ref_t[i], 1e-12 * std::max(scale_t[i], 1e-300))
          << "column " << i;
    }
  }
}

TEST(DesignOperatorTest, MatchesDenseReferenceOnEveryDesignFamily) {
  // `regular:3` at n = 50, m = 7: n·Δ = 150 is not a multiple of m, so
  // pool sizes differ by one.
  const std::vector<std::pair<const char*, Index>> designs{
      {"paper", 40},       {"wr:0.2", 40},    {"wor:0.2", 40},
      {"bernoulli:0.2", 40}, {"regular:3", 7}};
  auto rng = test_rng(20);
  const auto channel = noise::make_noiseless();
  const Index n = 50;
  for (const auto& [spec, m] : designs) {
    SCOPED_TRACE(spec);
    const pooling::GraphDesign design =
        solve::parse_design_spec(spec).instantiate(n);
    const core::Instance instance =
        core::make_instance(n, 4, m, design, *channel, rng);
    const AmpProblem problem =
        standardize(instance, channel->linearization(n, 4, n / 2));
    expect_matches_dense(problem.b, rng);
  }
}

TEST(DesignOperatorTest, MatchesDenseReferenceWithMultiplicities) {
  // Parallel edges (multiplicity 2 and 3) and an agent in no query.
  pooling::PoolingGraphBuilder builder(5);
  (void)builder.add_query(std::vector<Index>{0, 0, 3});
  (void)builder.add_query(std::vector<Index>{1, 2, 2, 2});
  (void)builder.add_query(std::vector<Index>{3, 1});
  const pooling::PoolingGraph g = builder.build();
  auto rng = test_rng(21);
  expect_matches_dense(DesignOperator{&g, 0.6, 0.8}, rng);
}

TEST(DesignOperatorTest, MatchesDenseReferenceForASingleAgent) {
  pooling::PoolingGraphBuilder builder(1);
  (void)builder.add_query(std::vector<Index>{0});
  (void)builder.add_query(std::vector<Index>{0, 0, 0});
  const pooling::PoolingGraph g = builder.build();
  auto rng = test_rng(22);
  expect_matches_dense(DesignOperator{&g, 1.5, 0.5}, rng);
}

TEST(DesignOperatorTest, ValidatesDimensions) {
  pooling::PoolingGraphBuilder builder(3);
  (void)builder.add_query(std::vector<Index>{0, 2});
  const pooling::PoolingGraph g = builder.build();
  const DesignOperator op{&g, 0.0, 1.0};
  std::vector<double> x(3);
  std::vector<double> y(1);
  std::vector<double> bad(2);
  EXPECT_THROW(op.matvec(bad, y), ContractViolation);
  EXPECT_THROW(op.matvec(x, bad), ContractViolation);
  EXPECT_THROW(op.matvec_transpose(bad, x), ContractViolation);
  EXPECT_THROW(op.matvec_transpose(y, bad), ContractViolation);
}

// With μ = 0 and 1/s = 1 the operator is the counting matrix A itself.

TEST(CountingMatrixTest, EntriesAreMultiplicities) {
  pooling::PoolingGraphBuilder builder(5);
  (void)builder.add_query(std::vector<Index>{0, 0, 3});
  (void)builder.add_query(std::vector<Index>{1, 2, 2, 2});
  const pooling::PoolingGraph g = builder.build();
  const DesignOperator a{&g, 0.0, 1.0};
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 5);

  // Column i of A is A·e_i.
  const auto column = [&](Index i) {
    std::vector<double> unit(5, 0.0);
    unit[static_cast<std::size_t>(i)] = 1.0;
    std::vector<double> out(2);
    a.matvec(unit, out);
    return out;
  };
  EXPECT_EQ(column(0), (std::vector<double>{2.0, 0.0}));
  EXPECT_EQ(column(1), (std::vector<double>{0.0, 1.0}));
  EXPECT_EQ(column(2), (std::vector<double>{0.0, 3.0}));
  EXPECT_EQ(column(3), (std::vector<double>{1.0, 0.0}));
  EXPECT_EQ(column(4), (std::vector<double>{0.0, 0.0}));
}

TEST(CountingMatrixTest, RowSumsAreGamma) {
  auto rng = test_rng(23);
  const pooling::QueryDesign d = pooling::paper_design(30);
  const pooling::PoolingGraph g = pooling::make_pooling_graph(30, 9, d, rng);
  const DesignOperator a{&g, 0.0, 1.0};
  std::vector<double> row_sums(9);
  a.matvec(std::vector<double>(30, 1.0), row_sums);
  for (const double sum : row_sums) {
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(d.gamma));
  }
}

TEST(CountingMatrixTest, PoolSumsViaMatvec) {
  // A·σ must equal the exact pool sums — the identity the AMP model
  // preprocessing relies on.
  auto rng = test_rng(24);
  const pooling::PoolingGraph g =
      pooling::make_pooling_graph(25, 10, pooling::paper_design(25), rng);
  const pooling::GroundTruth truth = pooling::make_ground_truth(25, 6, rng);
  const DesignOperator a{&g, 0.0, 1.0};

  std::vector<double> sigma(25);
  for (Index i = 0; i < 25; ++i) {
    sigma[static_cast<std::size_t>(i)] =
        static_cast<double>(truth.bits[static_cast<std::size_t>(i)]);
  }
  std::vector<double> pool_sums(10);
  a.matvec(sigma, pool_sums);
  for (Index j = 0; j < 10; ++j) {
    const double expected = static_cast<double>(
        noise::exact_pool_sum(g.query_multiset(j), truth.bits));
    EXPECT_DOUBLE_EQ(pool_sums[static_cast<std::size_t>(j)], expected);
  }
}

// The AMP iteration of run_amp, on the dense reference.
AmpResult dense_reference_amp(const AmpProblem& problem,
                              const Denoiser& denoiser) {
  const AmpOptions options;
  const DenseDesign dense(problem.b);
  const auto size = [](Index len) { return static_cast<std::size_t>(len); };
  AmpResult result;
  std::vector<double> x(size(problem.n), 0.0);
  std::vector<double> z = problem.y;
  const double floor = std::max(problem.effective_noise_var, 1e-12);
  const double m = static_cast<double>(problem.m);
  double tau2 = std::max(linalg::norm_squared(z) / m, floor);
  for (Index t = 0; t < options.max_iterations; ++t) {
    std::vector<double> pseudo = dense.matvec_transpose(z);
    std::vector<double> x_new(size(problem.n));
    double eta_prime_sum = 0.0;
    for (std::size_t i = 0; i < pseudo.size(); ++i) {
      pseudo[i] += x[i];
      x_new[i] = denoiser.eta(pseudo[i], tau2);
      eta_prime_sum += denoiser.eta_prime(pseudo[i], tau2);
    }
    const double update_mss = linalg::distance_squared(x_new, x) /
                              static_cast<double>(problem.n);
    x = std::move(x_new);
    ++result.iterations;
    const std::vector<double> bx = dense.matvec(x);
    for (std::size_t j = 0; j < z.size(); ++j) {
      z[j] = problem.y[j] - bx[j] + z[j] * (eta_prime_sum / m);
    }
    tau2 = std::max(linalg::norm_squared(z) / m, floor);
    if (update_mss < options.convergence_tol) {
      result.converged = true;
      break;
    }
  }
  result.estimate = core::select_top_k(x, problem.k).estimate;
  result.x = std::move(x);
  return result;
}

TEST(DesignOperatorTest, RunAmpMatchesDenseReferenceOnPinnedInstances) {
  struct Pinned {
    const char* design;
    const char* channel;
    Index m;
  };
  const std::vector<Pinned> pinned{
      {"paper", "z", 90},        {"paper", "gauss", 120},
      {"regular:6", "z", 60},    {"regular:6", "bitflip", 90},
      {"wr:0.05", "z", 90},      {"wr:0.05", "gauss", 60}};
  const Index n = 300;
  const Index k = 6;
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(std::string(p.design) + " " + p.channel + " m=" +
                 std::to_string(p.m));
    auto rng = test_rng(25);
    const std::string name = p.channel;
    const std::unique_ptr<noise::NoiseChannel> channel =
        name == "z"         ? noise::make_z_channel(0.1)
        : name == "bitflip" ? noise::make_bitflip_channel(0.05, 0.01)
                            : noise::make_gaussian_channel(1.0);
    const pooling::GraphDesign design =
        solve::parse_design_spec(p.design).instantiate(n);
    const core::Instance instance =
        core::make_instance(n, k, p.m, design, *channel, rng);
    const AmpProblem problem = standardize(
        instance,
        channel->linearization(
            n, k, static_cast<Index>(instance.graph.query_multiset(0).size())));
    const BayesBernoulliDenoiser denoiser(problem.pi);

    const AmpResult matrix_free = run_amp(problem, denoiser);
    const AmpResult dense = dense_reference_amp(problem, denoiser);
    EXPECT_EQ(matrix_free.iterations, dense.iterations);
    EXPECT_EQ(matrix_free.converged, dense.converged);
    EXPECT_EQ(matrix_free.estimate, dense.estimate);
    for (std::size_t i = 0; i < dense.x.size(); ++i) {
      EXPECT_NEAR(matrix_free.x[i], dense.x[i], 1e-9) << "agent " << i;
    }
  }
}

// --------------------------------------------------------------- run_amp

TEST(AmpRunTest, RecoversNoiselessInstance) {
  auto rng = test_rng(5);
  const auto channel = noise::make_noiseless();
  const Index n = 500;
  const Index k = 5;
  const Index m = 120;
  const core::Instance instance = core::make_instance(
      n, k, m, pooling::paper_design(n), *channel, rng);
  const AmpResult result =
      amp_reconstruct(instance, channel->linearization(n, k, n / 2));
  EXPECT_TRUE(core::exact_success(result.estimate, instance.truth));
}

TEST(AmpRunTest, RecoversZChannelInstance) {
  auto rng = test_rng(6);
  const noise::BitFlipChannel channel(0.1, 0.0);
  const Index n = 500;
  const Index k = 5;
  const Index m = 200;
  const core::Instance instance = core::make_instance(
      n, k, m, pooling::paper_design(n), channel, rng);
  const AmpResult result =
      amp_reconstruct(instance, channel.linearization(n, k, n / 2));
  EXPECT_TRUE(core::exact_success(result.estimate, instance.truth));
}

TEST(AmpRunTest, TauDecreasesOnEasyInstances) {
  auto rng = test_rng(7);
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      400, 4, 150, pooling::paper_design(400), *channel, rng);
  const AmpResult result =
      amp_reconstruct(instance, channel->linearization(400, 4, 200));
  ASSERT_GE(result.tau2_history.size(), 2u);
  EXPECT_LT(result.tau2_history.back(), result.tau2_history.front());
}

TEST(AmpRunTest, ConvergesAndStopsEarly) {
  auto rng = test_rng(8);
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      300, 3, 120, pooling::paper_design(300), *channel, rng);
  AmpOptions options;
  options.max_iterations = 200;
  const AmpResult result = amp_reconstruct(
      instance, channel->linearization(300, 3, 150), options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 200);
}

TEST(AmpRunTest, EstimateAlwaysHasKOnes) {
  auto rng = test_rng(9);
  const noise::GaussianQueryChannel channel(3.0);
  const core::Instance instance = core::make_instance(
      100, 8, 15, pooling::paper_design(100), channel, rng);
  const AmpResult result =
      amp_reconstruct(instance, channel.linearization(100, 8, 50));
  Index ones = 0;
  for (const Bit b : result.estimate) {
    ones += b;
  }
  EXPECT_EQ(ones, 8);
}

TEST(AmpRunTest, DampingStillConverges) {
  auto rng = test_rng(10);
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      300, 3, 120, pooling::paper_design(300), *channel, rng);
  AmpOptions options;
  options.damping = 0.7;
  const AmpResult result = amp_reconstruct(
      instance, channel->linearization(300, 3, 150), options);
  EXPECT_TRUE(core::exact_success(result.estimate, instance.truth));
}

TEST(AmpRunTest, OptionsAreValidated) {
  auto rng = test_rng(11);
  const auto channel = noise::make_noiseless();
  const core::Instance instance = core::make_instance(
      50, 3, 10, pooling::paper_design(50), *channel, rng);
  AmpOptions options;
  options.damping = 0.0;
  EXPECT_THROW((void)amp_reconstruct(
                   instance, channel->linearization(50, 3, 25), options),
               ContractViolation);
  options.damping = 1.0;
  options.max_iterations = 0;
  EXPECT_THROW((void)amp_reconstruct(
                   instance, channel->linearization(50, 3, 25), options),
               ContractViolation);
}

// -------------------------------------------------------- state evolution

TEST(StateEvolutionTest, MseBoundedByPriorVariance) {
  // The Bayes denoiser can never do worse than the prior mean:
  // E[(η − X)²] ≤ Var(X) = π(1−π).
  const BayesBernoulliDenoiser d(0.2);
  for (const double tau2 : {0.01, 0.1, 1.0, 10.0}) {
    const double mse = denoiser_mse(d, 0.2, tau2);
    EXPECT_LE(mse, 0.2 * 0.8 + 1e-9) << "tau2=" << tau2;
    EXPECT_GE(mse, 0.0);
  }
}

TEST(StateEvolutionTest, MseVanishesWithNoise) {
  const BayesBernoulliDenoiser d(0.2);
  EXPECT_LT(denoiser_mse(d, 0.2, 1e-4), 1e-3);
}

TEST(StateEvolutionTest, MseIncreasingInTau) {
  const BayesBernoulliDenoiser d(0.1);
  double prev = 0.0;
  for (const double tau2 : {0.01, 0.05, 0.2, 1.0, 5.0}) {
    const double mse = denoiser_mse(d, 0.1, tau2);
    EXPECT_GE(mse, prev);
    prev = mse;
  }
}

TEST(StateEvolutionTest, NoiselessRecursionCollapses) {
  // With zero measurement noise and enough measurements the fixed point
  // is τ² → 0 (perfect recovery regime).
  StateEvolutionParams params;
  params.pi = 0.01;
  params.n_over_m = 4.0;   // m = n/4, plenty for k/n = 1%
  params.noise_var = 0.0;
  const BayesBernoulliDenoiser d(params.pi);
  const StateEvolutionTrace trace = run_state_evolution(params, d);
  EXPECT_LT(trace.tau2.back(), 1e-8);
}

TEST(StateEvolutionTest, NoiseFloorIsRespected) {
  StateEvolutionParams params;
  params.pi = 0.01;
  params.n_over_m = 4.0;
  params.noise_var = 0.05;
  const BayesBernoulliDenoiser d(params.pi);
  const StateEvolutionTrace trace = run_state_evolution(params, d);
  EXPECT_GE(trace.tau2.back(), params.noise_var);
  EXPECT_LT(trace.tau2.back(), params.noise_var * 1.5);
}

TEST(StateEvolutionTest, PredictsEmpiricalTauOnEasyInstance) {
  // The empirical ‖z‖²/m trace should follow the SE prediction within a
  // finite-size tolerance on a noiseless instance.
  auto rng = test_rng(12);
  const auto channel = noise::make_noiseless();
  const Index n = 1000;
  const Index k = 10;
  const Index m = 300;
  const core::Instance instance = core::make_instance(
      n, k, m, pooling::paper_design(n), *channel, rng);
  const AmpProblem problem =
      standardize(instance, channel->linearization(n, k, n / 2));
  const BayesBernoulliDenoiser d(problem.pi);
  const AmpResult amp = run_amp(problem, d);

  StateEvolutionParams params;
  params.pi = problem.pi;
  params.n_over_m = static_cast<double>(n) / static_cast<double>(m);
  params.noise_var = problem.effective_noise_var;
  const StateEvolutionTrace se = run_state_evolution(params, d);

  // Compare the first iteration's tau² (before error feedback builds up).
  ASSERT_GE(amp.tau2_history.size(), 2u);
  ASSERT_GE(se.tau2.size(), 2u);
  EXPECT_NEAR(amp.tau2_history[0] / se.tau2[0], 1.0, 0.25);
  EXPECT_NEAR(amp.tau2_history[1] / se.tau2[1], 1.0, 0.5);
}

TEST(StateEvolutionTest, ParamsAreValidated) {
  const BayesBernoulliDenoiser d(0.1);
  StateEvolutionParams params;
  params.pi = 0.0;
  params.n_over_m = 1.0;
  EXPECT_THROW((void)run_state_evolution(params, d), ContractViolation);
  params.pi = 0.1;
  params.n_over_m = 0.0;
  EXPECT_THROW((void)run_state_evolution(params, d), ContractViolation);
}

}  // namespace
}  // namespace npd::amp
