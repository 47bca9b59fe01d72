#include "amp/amp.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace npd::amp {

AmpResult run_amp(const AmpProblem& problem, const Denoiser& denoiser,
                  const AmpOptions& options) {
  NPD_CHECK(options.max_iterations >= 1);
  NPD_CHECK_MSG(options.damping > 0.0 && options.damping <= 1.0,
                "damping must lie in (0, 1]");
  const Index n = problem.n;
  const Index m = problem.m;
  NPD_CHECK(problem.b.graph != nullptr);
  NPD_CHECK(problem.b.rows() == m && problem.b.cols() == n);
  NPD_CHECK(static_cast<Index>(problem.y.size()) == m);

  AmpResult result;
  // Standard initialization: σ^(0) = 0, z^(0) = y (Section III).
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> z = problem.y;
  std::vector<double> pseudo(static_cast<std::size_t>(n), 0.0);
  std::vector<double> x_new(static_cast<std::size_t>(n), 0.0);
  std::vector<double> ax(static_cast<std::size_t>(m), 0.0);

  // τ² is estimated from the residual; floor it with the known effective
  // measurement noise so the denoiser never divides by ~0.
  const double tau2_floor =
      std::max(problem.effective_noise_var, 1e-12);
  double tau2 = std::max(linalg::norm_squared(z) / static_cast<double>(m),
                         tau2_floor);
  result.tau2_history.push_back(tau2);

  double onsager_mean = 0.0;
  for (Index t = 0; t < options.max_iterations; ++t) {
    // Pseudo-data r = Bᵀz + x: each coordinate looks like x_i + τ·N(0,1).
    problem.b.matvec_transpose(z, pseudo);
    for (std::size_t i = 0; i < pseudo.size(); ++i) {
      pseudo[i] += x[i];
    }

    // Denoise and record the Onsager coefficient for the *next* residual.
    double eta_prime_sum = 0.0;
    for (std::size_t i = 0; i < pseudo.size(); ++i) {
      x_new[i] = denoiser.eta(pseudo[i], tau2);
      eta_prime_sum += denoiser.eta_prime(pseudo[i], tau2);
    }
    onsager_mean = eta_prime_sum / static_cast<double>(m);
    // Note: ⟨η'⟩·(n/m) = (1/m)·Σ_i η' — we fold n/m into the sum/m.

    if (options.damping < 1.0) {
      for (std::size_t i = 0; i < x_new.size(); ++i) {
        x_new[i] = options.damping * x_new[i] +
                   (1.0 - options.damping) * x[i];
      }
    }

    const double update_mss =
        linalg::distance_squared(x_new, x) / static_cast<double>(n);
    x.swap(x_new);
    ++result.iterations;

    // Residual with Onsager correction:
    //   z = y − Bx + z_old·(n/m)⟨η'⟩.
    problem.b.matvec(x, ax);
    for (std::size_t j = 0; j < z.size(); ++j) {
      z[j] = problem.y[j] - ax[j] + z[j] * onsager_mean;
    }
    tau2 = std::max(linalg::norm_squared(z) / static_cast<double>(m),
                    tau2_floor);
    result.tau2_history.push_back(tau2);

    if (update_mss < options.convergence_tol) {
      result.converged = true;
      break;
    }
  }

  result.x = std::move(x);
  result.estimate = core::select_top_k(result.x, problem.k).estimate;
  return result;
}

AmpResult amp_reconstruct(const core::Instance& instance,
                          const noise::Linearization& lin,
                          const AmpOptions& options) {
  const AmpProblem problem = standardize(instance, lin);
  const BayesBernoulliDenoiser denoiser(problem.pi);
  return run_amp(problem, denoiser, options);
}

}  // namespace npd::amp
