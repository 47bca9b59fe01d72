// Tests for the Theorem 1/2 bound calculators: closed-form values,
// monotonicity in every parameter, regime consistency and the reduction
// to the noiseless bounds of [29].

#include <gtest/gtest.h>

#include <cmath>

#include "core/theory.hpp"
#include "util/assert.hpp"

namespace npd::core::theory {
namespace {

constexpr double kTol = 1e-9;

TEST(TheoryTest, GammaConstant) {
  EXPECT_NEAR(gamma_constant(), 1.0 - std::exp(-0.5), kTol);
  EXPECT_NEAR(gamma_constant(), 0.39346934028736658, kTol);
}

TEST(TheoryTest, SublinearKRealMatchesPower) {
  EXPECT_NEAR(sublinear_k_real(10000, 0.25), 10.0, kTol);
  EXPECT_NEAR(sublinear_k_real(100000, 0.25), std::pow(10.0, 1.25), kTol);
}

// ------------------------------------------------------------- Z channel

TEST(TheoryTest, ZChannelClosedForm) {
  // m = (4γ+ε)(1+√θ)²/(1−p)·k·ln n, evaluated by hand.
  const Index n = 1000;
  const double theta = 0.25;
  const double p = 0.1;
  const double eps = 0.05;
  const double k = std::pow(1000.0, 0.25);
  const double expected = (4.0 * gamma_constant() + eps) * 2.25 / 0.9 * k *
                          std::log(1000.0);
  EXPECT_NEAR(z_channel_sublinear(n, theta, p, eps), expected, kTol);
}

TEST(TheoryTest, ZChannelIncreasesWithP) {
  const double lo = z_channel_sublinear(1000, 0.25, 0.1, 0.05);
  const double mid = z_channel_sublinear(1000, 0.25, 0.3, 0.05);
  const double hi = z_channel_sublinear(1000, 0.25, 0.5, 0.05);
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
}

TEST(TheoryTest, ZChannelIncreasesWithTheta) {
  EXPECT_LT(z_channel_sublinear(1000, 0.2, 0.1, 0.05),
            z_channel_sublinear(1000, 0.4, 0.1, 0.05));
}

TEST(TheoryTest, NoiselessMatchesGebhardEtAl) {
  // p = 0 must reproduce the [29] bound (4γ+ε)(1+√θ)²·k·ln n, which is
  // also the Theorem 2 noisy-query bound.
  const double z = z_channel_sublinear(1000, 0.25, 0.0, 0.1);
  const double nq = noisy_query_sublinear(1000, 0.25, 0.1);
  EXPECT_NEAR(z, nq, kTol);
}

// ------------------------------------------------- general noisy channel

TEST(TheoryTest, GncClosedForm) {
  const Index n = 1000;
  const double theta = 0.25;
  const double p = 0.1;
  const double q = 0.05;
  const double eps = 0.0;
  const double expected = 4.0 * gamma_constant() * q * 2.25 /
                          (0.85 * 0.85) * 1000.0 * std::log(1000.0);
  EXPECT_NEAR(gnc_sublinear(n, theta, p, q, eps), expected, kTol);
}

TEST(TheoryTest, GncRequiresPositiveQ) {
  EXPECT_THROW((void)gnc_sublinear(1000, 0.25, 0.1, 0.0, 0.05),
               ContractViolation);
}

TEST(TheoryTest, GncScalesWithNLogN) {
  // Doubling n (roughly) more than doubles the bound — it scales n·ln n.
  const double at_1k = gnc_sublinear(1000, 0.25, 0.1, 0.01, 0.05);
  const double at_2k = gnc_sublinear(2000, 0.25, 0.1, 0.01, 0.05);
  EXPECT_GT(at_2k, 2.0 * at_1k);
}

// -------------------------------------------------- interpolated bound

TEST(TheoryTest, InterpolatedReducesToZChannelAtQZero) {
  EXPECT_NEAR(channel_sublinear_interpolated(1000, 0.25, 0.1, 0.0, 0.05),
              z_channel_sublinear(1000, 0.25, 0.1, 0.05), 1e-6);
}

TEST(TheoryTest, InterpolatedApproachesGncForLargeQ) {
  // When q ≫ k/n the k/n term is negligible.
  const Index n = 100000;
  const double q = 0.1;  // k/n ≈ 1.8e-4 ≪ q
  const double interp =
      channel_sublinear_interpolated(n, 0.25, 0.1, q, 0.0);
  const double gnc = gnc_sublinear(n, 0.25, 0.1, q, 0.0);
  EXPECT_NEAR(interp / gnc, 1.0, 2e-3);
}

TEST(TheoryTest, InterpolatedIsMonotoneInQ) {
  double prev = 0.0;
  for (const double q : {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}) {
    const double v = channel_sublinear_interpolated(10000, 0.25, 0.1, q, 0.05);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(TheoryTest, InterpolatedTransitionScale) {
  // The regime flip happens around q ≈ k/n: below it the bound is within
  // 2x of the Z-channel value, far above it is much larger.
  const Index n = 10000;  // k/n = 1e-3
  const double z = z_channel_sublinear(n, 0.25, 0.1, 0.0);
  EXPECT_LT(channel_sublinear_interpolated(n, 0.25, 0.1, 1e-5, 0.0), 1.1 * z);
  EXPECT_GT(channel_sublinear_interpolated(n, 0.25, 0.1, 1e-1, 0.0), 50.0 * z);
}

// ---------------------------------------------------------------- linear

TEST(TheoryTest, LinearClosedFormDerivation) {
  const Index n = 1000;
  const double zeta = 0.1;
  const double p = 0.1;
  const double q = 0.05;
  const double eps = 0.0;
  const double expected = 16.0 * gamma_constant() *
                          (q + (1.0 - p - q) * zeta) / (0.85 * 0.85) *
                          1000.0 * std::log(1000.0);
  EXPECT_NEAR(channel_linear(n, zeta, p, q, eps), expected, kTol);
}

TEST(TheoryTest, LinearVerbatimFormDiffersOnlyForPositiveQ) {
  // At q = 0 the printed theorem and the derivation agree...
  EXPECT_NEAR(channel_linear(1000, 0.1, 0.2, 0.0, 0.05, false),
              channel_linear(1000, 0.1, 0.2, 0.0, 0.05, true), kTol);
  // ... for q > 0 and small ζ the printed form multiplies the q term by ζ
  // and is therefore *weaker* than the derivation (Equations 16-17; see
  // the note on the linear bound in core/theory.hpp):
  // verbatim: (q + (1−p−q))·ζ = 0.08, derivation: q + (1−p−q)ζ = 0.17.
  EXPECT_LT(channel_linear(1000, 0.1, 0.2, 0.1, 0.05, true),
            channel_linear(1000, 0.1, 0.2, 0.1, 0.05, false));
}

TEST(TheoryTest, LinearNoiselessMatchesNoisyQueryLinear) {
  EXPECT_NEAR(channel_linear(5000, 0.2, 0.0, 0.0, 0.1),
              noisy_query_linear(5000, 0.2, 0.1), kTol);
}

TEST(TheoryTest, LinearIncreasesWithZeta) {
  EXPECT_LT(channel_linear(1000, 0.05, 0.1, 0.0, 0.05),
            channel_linear(1000, 0.2, 0.1, 0.0, 0.05));
}

// --------------------------------------------------------------- Theorem 2

TEST(TheoryTest, NoisyQuerySublinearClosedForm) {
  const double expected =
      (4.0 * gamma_constant() + 0.1) * 2.25 * std::pow(1000.0, 0.25) *
      std::log(1000.0);
  EXPECT_NEAR(noisy_query_sublinear(1000, 0.25, 0.1), expected, kTol);
}

TEST(TheoryTest, NoisyQueryLinearClosedForm) {
  const double expected =
      (16.0 * gamma_constant() + 0.1) * 0.1 * 1000.0 * std::log(1000.0);
  EXPECT_NEAR(noisy_query_linear(1000, 0.1, 0.1), expected, kTol);
}

TEST(TheoryTest, NoiseRatioScalesAsStated) {
  // λ²·ln n / m: doubling λ quadruples it; doubling m halves it.
  const double base = noisy_query_noise_ratio(2.0, 100.0, 1000);
  EXPECT_NEAR(noisy_query_noise_ratio(4.0, 100.0, 1000), 4.0 * base, kTol);
  EXPECT_NEAR(noisy_query_noise_ratio(2.0, 200.0, 1000), base / 2.0, kTol);
}

TEST(TheoryTest, NoiseRatioSmallInAchievabilityRegime) {
  // At the Theorem 2 bound with λ = 1 the ratio is ≪ 1.
  const double m = noisy_query_sublinear(10000, 0.25, 0.1);
  EXPECT_LT(noisy_query_noise_ratio(1.0, m, 10000), 0.05);
}

// ----------------------------------------------------------- validation

TEST(TheoryTest, BoundsRejectBadParameters) {
  EXPECT_THROW((void)z_channel_sublinear(1, 0.25, 0.1, 0.05),
               ContractViolation);
  EXPECT_THROW((void)z_channel_sublinear(1000, 1.25, 0.1, 0.05),
               ContractViolation);
  EXPECT_THROW((void)z_channel_sublinear(1000, 0.25, 1.0, 0.05),
               ContractViolation);
  EXPECT_THROW((void)z_channel_sublinear(1000, 0.25, 0.1, -0.05),
               ContractViolation);
  EXPECT_THROW((void)channel_linear(1000, 0.1, 0.6, 0.5, 0.05),
               ContractViolation);
  EXPECT_THROW((void)noisy_query_noise_ratio(-1.0, 10.0, 100),
               ContractViolation);
}

TEST(TheoryTest, EpsilonZeroIsAllowedAndSmallest) {
  const double tight = z_channel_sublinear(1000, 0.25, 0.1, 0.0);
  const double slack = z_channel_sublinear(1000, 0.25, 0.1, 0.5);
  EXPECT_LT(tight, slack);
}

}  // namespace
}  // namespace npd::core::theory
