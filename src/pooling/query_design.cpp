#include "pooling/query_design.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rand/distributions.hpp"
#include "util/assert.hpp"

namespace npd::pooling {

namespace {

/// Degenerate design parameters are *usage* errors (a user-supplied n or
/// fraction), so they surface as `std::invalid_argument` — matching the
/// registry's treatment of unknown solver/scenario names — rather than
/// as contract violations from deep inside a worker thread.
[[noreturn]] void usage_error(const std::string& message) {
  throw std::invalid_argument(message);
}

}  // namespace

QueryDesign paper_design(Index n) {
  if (n < 2) {
    usage_error("paper design: need n >= 2");
  }
  return QueryDesign{.gamma = n / 2, .mode = SamplingMode::WithReplacement};
}

QueryDesign fractional_design(Index n, double gamma_fraction,
                              SamplingMode mode) {
  if (n < 2) {
    usage_error("fractional design: need n >= 2");
  }
  if (!(gamma_fraction > 0.0 && gamma_fraction <= 1.0)) {
    usage_error("fractional design: pool fraction must lie in (0, 1]");
  }
  const auto gamma = static_cast<Index>(
      std::llround(gamma_fraction * static_cast<double>(n)));
  if (gamma < 1) {
    usage_error("fractional design: pool fraction rounds to an empty pool "
                "(gamma = 0)");
  }
  return QueryDesign{.gamma = std::min<Index>(gamma, n), .mode = mode};
}

std::vector<Index> sample_query(const QueryDesign& design, Index n,
                                rand::Rng& rng) {
  std::vector<Index> pool;
  sample_query_into(design, n, rng, pool);
  return pool;
}

void sample_query_into(const QueryDesign& design, Index n, rand::Rng& rng,
                       std::vector<Index>& out) {
  NPD_CHECK(n > 0);
  NPD_CHECK_MSG(design.gamma > 0, "query size must be positive");
  switch (design.mode) {
    case SamplingMode::WithReplacement:
      // The draws of `rand::sample_with_replacement`, written in place.
      out.resize(static_cast<std::size_t>(design.gamma));
      for (Index& agent : out) {
        agent = rng.uniform_index(n);
      }
      return;
    case SamplingMode::WithoutReplacement: {
      NPD_CHECK_MSG(design.gamma <= n,
                    "cannot sample more agents than exist without replacement");
      const auto subset = rand::sample_without_replacement(rng, n, design.gamma);
      out.assign(subset.begin(), subset.end());
      return;
    }
    case SamplingMode::Bernoulli: {
      NPD_CHECK_MSG(design.gamma <= n,
                    "Bernoulli inclusion probability would exceed 1");
      const double inclusion =
          static_cast<double>(design.gamma) / static_cast<double>(n);
      out.clear();
      out.reserve(static_cast<std::size_t>(design.gamma) +
                  static_cast<std::size_t>(design.gamma) / 4 + 8);
      for (Index agent = 0; agent < n; ++agent) {
        if (rng.bernoulli(inclusion)) {
          out.push_back(agent);
        }
      }
      if (out.empty()) {
        // Keep queries nonempty so downstream pool-size math is safe.
        out.push_back(rng.uniform_index(n));
      }
      return;
    }
  }
  NPD_CHECK_MSG(false, "unreachable: unknown sampling mode");
}

}  // namespace npd::pooling
