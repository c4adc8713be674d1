#include "support/rng.h"

#include <cmath>
#include <mutex>
#include <numeric>
#include <stdexcept>

namespace cityhunter::support {

std::uint64_t Rng::splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng Rng::fork(std::string_view label) const {
  // FNV-1a over the label mixed with a snapshot of the engine state hash.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  // Combine with the parent's *seed-derived* identity: re-hash a copy of the
  // engine's next output without disturbing the parent (we copy the engine).
  std::mt19937_64 copy = engine_;
  const std::uint64_t parent_word = copy();
  return Rng(splitmix(h ^ parent_word));
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  std::lognormal_distribution<double> d(mu, sigma);
  return d(engine_);
}

double Rng::exponential_mean(double mean) {
  if (mean <= 0.0) return 0.0;
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

int Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  // glibc's lgamma() — called by poisson_distribution's setup and by its
  // large-mean rejection sampler — writes the process-global `signgam`,
  // which is a data race when campaigns run in parallel. Poisson draws are
  // rare (slot scheduling), so serializing them is cheaper than swapping
  // the sampler, and keeps the drawn values bit-identical.
  static std::mutex mutex;
  const std::scoped_lock lock(mutex);
  std::poisson_distribution<int> d(mean);
  return d(engine_);
}

int Rng::zipf(int n, double s) {
  if (n <= 0) throw std::invalid_argument("zipf: n must be positive");
  if (n == 1) return 1;
  // Inverse CDF over the harmonic weights. n in this codebase is at most a
  // few thousand, so a linear scan is fine and exact.
  double norm = 0.0;
  for (int k = 1; k <= n; ++k) norm += 1.0 / std::pow(k, s);
  double u = uniform(0.0, norm);
  double acc = 0.0;
  for (int k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(k, s);
    if (u <= acc) return k;
  }
  return n;
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("index: empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0 || weights.empty()) {
    throw std::invalid_argument("weighted_index: non-positive total weight");
  }
  double u = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

void Rng::sample_indices(std::size_t n, std::size_t k,
                         std::vector<std::size_t>& out) {
  if (k > n) k = n;
  // Partial Fisher-Yates over an index vector.
  out.resize(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

}  // namespace cityhunter::support
