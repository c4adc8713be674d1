// Deterministic random-number generation.
//
// All stochastic behaviour in the simulator is driven by an Rng seeded from a
// scenario seed, so every experiment in bench/ is exactly reproducible. Child
// generators can be forked with independent streams (SplitMix64 over the seed
// and a stream label) so adding randomness to one module does not perturb
// another.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "support/hash.h"

namespace cityhunter::support {

/// The 64-bit Mersenne Twister of [rand.predef] (mt19937_64), output for
/// output equal to the standard library's engine built from the same seed,
/// with its state built on demand. Construction stores only the seed. A
/// draw twists the one word it returns, in place in the circular 312-word
/// state, so block boundaries need no bulk regeneration pass. In the first
/// block the seeding recurrence runs only as far as the next draw reads:
/// draw k reads seed word k + 156, so a stream that draws d < 156 values
/// pays d + 156 seeding steps and d twists instead of a full 312-word seed
/// and twist. Short-lived streams are common: Rng::fork reads a single word
/// of its parent through peek(). (The medium's fault decisions use no Rng;
/// they are keyed hashes, see medium/fault.h.)
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) : x_{seed} {}

  result_type operator()() {
    if (pos_ >= ready_) [[unlikely]] seed_through_draw();
    const std::size_t p = pos_;
    const std::uint64_t v = twisted(p);
    x_[p] = v;
    pos_ = static_cast<std::uint16_t>(p + 1 == kN ? 0 : p + 1);
    return temper(v);
  }

  /// The value the next operator() call returns, without advancing or
  /// writing the state: const calls from several threads are race-free.
  result_type peek() const;

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  static std::uint64_t seed_step(std::uint64_t prev, std::size_t i) {
    return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  /// Word `cur` of the next block from the upper 33 bits of `cur`, the
  /// lower 31 bits of its successor and the word kM ahead. The
  /// multiply-by-A step selects with a mask, not a branch on the low bit.
  static std::uint64_t twist(std::uint64_t cur, std::uint64_t next,
                             std::uint64_t mid) {
    const std::uint64_t y =
        (cur & ~std::uint64_t{0x7fffffff}) | (next & 0x7fffffff);
    return mid ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
  }
  /// Word p of the next block, from words p, p + 1 and p + kM (mod kN) of
  /// the circular state.
  std::uint64_t twisted(std::size_t p) const {
    return twist(x_[p], x_[p + 1 == kN ? 0 : p + 1],
                 x_[p < kN - kM ? p + kM : p - (kN - kM)]);
  }
  static std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }
  /// First block only: extend the seed words through the ones the draw at
  /// pos_ reads.
  void seed_through_draw();

  /// Words [0, seeded_) hold the seeding recurrence or later twists; the
  /// rest are zero until seeded.
  std::array<std::uint64_t, kN> x_;
  /// Next word to draw.
  std::uint16_t pos_ = 0;
  /// Draws at positions below this read only seeded words (kN once the
  /// seeding is complete).
  std::uint16_t ready_ = 0;
  std::uint16_t seeded_ = 1;
};

/// Deterministic RNG wrapper around Mt19937_64 with convenience
/// distributions used throughout the simulator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix64(seed)) {}

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

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

/// Zipf-distributed ranks over n items with exponent s: rank r (1-based)
/// has weight 1 / r^s. The cumulative weights are summed once, in rank
/// order; a draw is one uniform over their total and a binary search.
class ZipfTable {
 public:
  ZipfTable() = default;
  ZipfTable(std::size_t n, double s);

  /// Zero-based rank (0 is the most probable). A one-item table returns 0
  /// without drawing; an empty one throws std::invalid_argument.
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace cityhunter::support
