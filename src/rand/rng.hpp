#pragma once

/// \file rng.hpp
/// Deterministic random number generation for the whole library.
///
/// The paper's simulation software uses the Mersenne Twister
/// `mt19937_64` from the C++11 `<random>` header; we wrap the same
/// generator so the reproduction matches the published methodology.
/// All randomness in the library flows through `npd::rand::Rng` instances
/// passed explicitly (never global state), so every experiment is
/// reproducible from its seed and independent random streams can be derived
/// for replicated runs (via a SplitMix64 hash of the parent seed and a
/// stream tag).

#include <cstdint>
#include <random>
#include <string_view>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace npd::rand {

/// SplitMix64 step: the standard 64-bit finalizer used to derive
/// well-separated child seeds from (seed, tag) pairs.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a 64-bit over `text` from `basis` (default: the standard offset
/// basis).  The one string hash of the repo: the engine's seed
/// derivation hashes scenario ids with it, and the shard result cache
/// builds content addresses from it.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view text, std::uint64_t basis = 0xcbf29ce484222325ULL) {
  std::uint64_t h = basis;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The library-wide random engine: a seeded `std::mt19937_64` (the paper's
/// generator) plus convenience draws for the distributions the model needs.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// The seed this engine was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Derive an independent child generator for stream `tag`.
  /// Children with distinct tags (or from distinct parents) are
  /// statistically independent for our purposes.
  [[nodiscard]] Rng derive(std::uint64_t tag) const {
    return Rng(derive_seed(seed_, tag));
  }

  /// The seed of `Rng(seed).derive(tag)`, without seeding either engine.
  [[nodiscard]] static constexpr std::uint64_t derive_seed(std::uint64_t seed,
                                                           std::uint64_t tag) {
    return splitmix64(seed ^ splitmix64(tag + 0x1234567ULL));
  }

  /// Raw 64 random bits (UniformRandomBitGenerator interface).
  result_type operator()() { return engine_(); }
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

  /// Uniform integer in `[0, bound)`.
  [[nodiscard]] Index uniform_index(Index bound) {
    NPD_ASSERT(bound > 0);
    return std::uniform_int_distribution<Index>(0, bound - 1)(engine_);
  }

  /// Uniform real in `[0, 1)`.
  [[nodiscard]] double uniform_real() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Bernoulli draw with success probability `p` in `[0, 1]`.
  [[nodiscard]] bool bernoulli(double p) {
    NPD_ASSERT(p >= 0.0 && p <= 1.0);
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Gaussian draw with the given mean and standard deviation.
  [[nodiscard]] double gaussian(double mean, double stddev) {
    NPD_ASSERT(stddev >= 0.0);
    if (stddev == 0.0) {
      return mean;
    }
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Access the underlying engine for use with `std::*_distribution`.
  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace npd::rand
