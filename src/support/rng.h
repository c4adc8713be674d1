// Deterministic random-number generation.
//
// All stochastic behaviour in the simulator is driven by an Rng seeded from a
// scenario seed, so every experiment in bench/ is exactly reproducible. Child
// generators can be forked with independent streams (SplitMix64 over the seed
// and a stream label) so adding randomness to one module does not perturb
// another.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace cityhunter::support {

/// Deterministic RNG wrapper around std::mt19937_64 with convenience
/// distributions used throughout the simulator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix(seed)) {}

  /// Fork an independent child stream. The label keeps streams stable across
  /// code changes: rng.fork("mobility") always yields the same stream for a
  /// given parent seed.
  Rng fork(std::string_view label) const;

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial.
  bool chance(double p);

  /// Normal distribution (mean, stddev).
  double normal(double mean, double stddev);

  /// Lognormal by underlying normal parameters.
  double lognormal(double mu, double sigma);

  /// Exponential with the given mean (NOT rate).
  double exponential_mean(double mean);

  /// Poisson-distributed count.
  int poisson(double mean);

  /// Zipf-distributed rank in [1, n] with exponent s. Uses inverse-CDF over a
  /// precomputed table for small n, rejection sampling otherwise.
  int zipf(int n, double s);

  /// Pick a uniformly random element index of a container of size n.
  std::size_t index(std::size_t n);

  /// Weighted index selection: weights need not be normalised.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Sample min(k, n) distinct indices out of [0, n) into `out`, replacing
  /// its contents and reusing its capacity. Order unspecified.
  void sample_indices(std::size_t n, std::size_t k,
                      std::vector<std::size_t>& out);

  std::mt19937_64& engine() { return engine_; }

 private:
  static std::uint64_t splitmix(std::uint64_t x);
  std::mt19937_64 engine_;
};

}  // namespace cityhunter::support
