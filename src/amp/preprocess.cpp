#include "amp/preprocess.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace npd::amp {

void DesignOperator::matvec(std::span<const double> x,
                            std::span<double> out) const {
  NPD_CHECK(static_cast<Index>(x.size()) == cols());
  NPD_CHECK(static_cast<Index>(out.size()) == rows());
  double x_sum = 0.0;
  for (const double v : x) {
    x_sum += v;
  }
  for (Index j = 0; j < rows(); ++j) {
    const auto agents = graph->query_distinct(j);
    const auto counts = graph->query_multiplicity(j);
    double acc = 0.0;
    for (std::size_t idx = 0; idx < agents.size(); ++idx) {
      acc += static_cast<double>(counts[idx]) *
             x[static_cast<std::size_t>(agents[idx])];
    }
    out[static_cast<std::size_t>(j)] = finish(acc, x_sum);
  }
}

void DesignOperator::matvec_transpose(std::span<const double> z,
                                      std::span<double> out) const {
  NPD_CHECK(static_cast<Index>(z.size()) == rows());
  NPD_CHECK(static_cast<Index>(out.size()) == cols());
  std::fill(out.begin(), out.end(), 0.0);
  double z_sum = 0.0;
  for (Index j = 0; j < rows(); ++j) {
    const double z_j = z[static_cast<std::size_t>(j)];
    z_sum += z_j;
    const auto agents = graph->query_distinct(j);
    const auto counts = graph->query_multiplicity(j);
    for (std::size_t idx = 0; idx < agents.size(); ++idx) {
      out[static_cast<std::size_t>(agents[idx])] +=
          static_cast<double>(counts[idx]) * z_j;
    }
  }
  for (double& v : out) {
    v = finish(v, z_sum);
  }
}

AmpProblem standardize(const core::Instance& instance,
                       const noise::Linearization& lin) {
  NPD_CHECK_MSG(lin.gain > 0.0, "AMP needs a positive channel gain");
  const Index n = instance.n();
  const Index m = instance.m();
  const Index k = instance.k();
  NPD_CHECK(m > 0);

  AmpProblem problem;
  problem.n = n;
  problem.m = m;
  problem.k = k;
  problem.pi = static_cast<double>(k) / static_cast<double>(n);

  // The paper's design has a fixed pool size; read Γ from the graph (all
  // rows equal under `paper_design`).
  const double gamma =
      static_cast<double>(instance.graph.query_multiset(0).size());
  const double mean_entry = gamma / static_cast<double>(n);
  const double entry_var = mean_entry * (1.0 - 1.0 / static_cast<double>(n));
  const double s = std::sqrt(static_cast<double>(m) * entry_var);
  NPD_CHECK_MSG(s > 0.0, "degenerate design: zero entry variance");

  problem.b = DesignOperator{&instance.graph, mean_entry, 1.0 / s};

  problem.y.resize(static_cast<std::size_t>(m));
  const double centering =
      lin.offset + lin.gain * gamma * static_cast<double>(k) /
                       static_cast<double>(n);
  for (Index j = 0; j < m; ++j) {
    problem.y[static_cast<std::size_t>(j)] =
        (instance.results[static_cast<std::size_t>(j)] - centering) /
        (lin.gain * s);
  }
  problem.effective_noise_var =
      lin.noise_var / (lin.gain * lin.gain * s * s);
  return problem;
}

}  // namespace npd::amp
