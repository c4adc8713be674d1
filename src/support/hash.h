// SplitMix64, the one 64-bit mixer behind every seed, and the keyed draws
// built on it.
#pragma once

#include <cstdint>

namespace cityhunter::support {

/// SplitMix64 (Steele, Lea & Flood): add the golden-ratio increment, then
/// the Stafford variant 13 finalizer. A bijection on 64-bit words whose
/// outputs for consecutive inputs look independent. Rng seeds its engine
/// through it, and the fault model and the sharded city hash their keys
/// with it.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Keyed draws: a random decision as a pure function of its key and an id,
// with no generator state. keyed(key, id) is the draw; keyed(keyed(seed,
// entity), purpose) derives a per-entity, per-purpose key whose i-th draw
// is keyed(that key, i). unit() and below() turn a draw into a uniform
// double or a uniform integer. The fault model and the sharded city draw
// this way.

/// The key hashed with an id (a receiver, a decision code, a draw index).
constexpr std::uint64_t keyed(std::uint64_t key, std::uint64_t id) {
  return splitmix64(key ^ splitmix64(id));
}

/// Top 53 bits as a uniform double in [0, 1).
constexpr double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Multiply-shift: floor(h * n / 2^64), uniform in [0, n) for n >= 1.
/// 2^64 is not a multiple of n in general, so each outcome takes
/// floor(2^64 / n) or ceil(2^64 / n) of the 2^64 hashes: its probability
/// is within 2^-64 of 1/n, a relative bias below n * 2^-64 (< 2^-33 for
/// any int-sized n).
constexpr std::uint64_t below(std::uint64_t h, std::uint64_t n) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * n) >> 64);
}

}  // namespace cityhunter::support
