#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/require.h"

namespace choreo {

/// Deterministic pseudo-random source used by every stochastic component.
///
/// All simulators, workload generators and placement baselines take an `Rng&`
/// (or a seed) explicitly, so that experiments are reproducible and tests can
/// pin behaviour. Never construct from global entropy inside the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    CHOREO_REQUIRE(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    CHOREO_REQUIRE(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    CHOREO_REQUIRE(p >= 0.0 && p <= 1.0);
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exponential with mean `mean` (not rate).
  double exponential(double mean) {
    CHOREO_REQUIRE(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    CHOREO_REQUIRE(stddev >= 0.0);
    if (stddev == 0.0) return mean;
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal where `mu`/`sigma` parameterise the underlying normal.
  double lognormal(double mu, double sigma) {
    CHOREO_REQUIRE(sigma >= 0.0);
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Pareto with shape `alpha` and scale `xm` (minimum value).
  double pareto(double alpha, double xm) {
    CHOREO_REQUIRE(alpha > 0.0 && xm > 0.0);
    const double u = uniform(0.0, 1.0);
    return xm / std::pow(1.0 - u, 1.0 / alpha);
  }

  /// Picks an index in [0, weights.size()) proportionally to `weights`.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each component
  /// of an experiment its own stream while keeping a single top-level seed.
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Word `index` of the splitmix64 stream seeded with `key`: the generator's
/// state after index + 1 steps, mixed. Counter-based — any word is computed
/// directly, with no state to carry from one draw to the next.
inline std::uint64_t splitmix64_at(std::uint64_t key, std::uint64_t index) {
  std::uint64_t z = key + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Box–Muller over two uniform words: u1 = ((w1 >> 11) + 1) * 2^-53 in
/// (0, 1], u2 = (w2 >> 11) * 2^-53 in [0, 1), and the standard normal
/// sqrt(-2 ln u1) * cos(2 pi u2), or its sine half when `sine_half`. Because
/// u1 >= 2^-53, |result| <= sqrt(106 ln 2) ~= 8.5717: a hard bound.
inline double box_muller(std::uint64_t w1, std::uint64_t w2, bool sine_half) {
  constexpr double kTwoPi = 6.283185307179586;
  const double u1 = static_cast<double>((w1 >> 11) + 1) * 0x1p-53;
  const double u2 = static_cast<double>(w2 >> 11) * 0x1p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * (sine_half ? std::sin(kTwoPi * u2) : std::cos(kTwoPi * u2));
}

/// Standard normal number `index` of the counter-keyed stream `key`: paired
/// Box–Muller, so indices 2p and 2p + 1 share splitmix64 words 2p and
/// 2p + 1, the even index taking the cosine half and the odd one the sine
/// half. Same (key, index), same value, in any order and on any thread.
inline double keyed_normal(std::uint64_t key, std::uint64_t index) {
  const std::uint64_t pair = index >> 1;
  return box_muller(splitmix64_at(key, 2 * pair), splitmix64_at(key, 2 * pair + 1),
                    (index & 1) != 0);
}

/// Unit-mean exponential over one uniform word: -ln(u) with
/// u = ((w >> 12) + 0.5) * 2^-52. The half is exact below 2^52, so u lies in
/// [2^-53, 1 - 2^-53], strictly inside (0, 1), and the result is finite and
/// strictly positive: between about 1.1e-16 and 53 ln 2 ~= 36.74.
inline double unit_exponential(std::uint64_t w) {
  const double u = (static_cast<double>(w >> 12) + 0.5) * 0x1p-52;
  return -std::log(u);
}

/// Unit-mean exponential number `index` of the counter-keyed stream `key`:
/// word `index` of splitmix64_at, through unit_exponential. Scale by a mean
/// for any other.
inline double keyed_exponential(std::uint64_t key, std::uint64_t index) {
  return unit_exponential(splitmix64_at(key, index));
}

}  // namespace choreo
