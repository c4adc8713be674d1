#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>

namespace cityhunter::support {

void Mt19937_64::seed_through_draw() {
  // Only the first block gets here, at a position below kM: its draw reads
  // seed words pos_ + 1 and pos_ + kM.
  const std::size_t need = pos_ + kM + 1;
  std::uint64_t w = x_[seeded_ - 1];
  for (std::size_t i = seeded_; i < need; ++i) x_[i] = w = seed_step(w, i);
  seeded_ = static_cast<std::uint16_t>(need);
  ready_ = static_cast<std::uint16_t>(need == kN ? kN : pos_ + 1);
}

Mt19937_64::result_type Mt19937_64::peek() const {
  const std::size_t p = pos_;
  if (p < ready_) return temper(twisted(p));
  // First block, p < kM: run the seeding recurrence on past the seeded
  // words, in registers, to words p + 1 and p + kM.
  std::uint64_t w = x_[seeded_ - 1];
  std::uint64_t next = p + 1 < seeded_ ? x_[p + 1] : 0;
  for (std::size_t i = seeded_; i <= p + kM; ++i) {
    w = seed_step(w, i);
    if (i == p + 1) next = w;
  }
  return temper(twist(x_[p], next, w));
}

Rng Rng::fork(std::string_view label) const {
  // FNV-1a over the label mixed with a snapshot of the engine state hash.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  // Combine with the parent's *seed-derived* identity: the engine's next
  // output, peeked without disturbing the parent.
  return Rng(splitmix64(h ^ engine_.peek()));
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

ZipfTable::ZipfTable(std::size_t n, double s) {
  cdf_.reserve(n);
  double acc = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(acc);
  }
}

std::size_t ZipfTable::sample(Rng& rng) const {
  if (cdf_.empty()) throw std::invalid_argument("ZipfTable: no items");
  if (cdf_.size() == 1) return 0;
  const double u = rng.uniform(0.0, cdf_.back());
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace cityhunter::support
