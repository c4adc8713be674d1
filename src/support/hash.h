// SplitMix64: the one 64-bit mixer behind every keyed draw and seed.
#pragma once

#include <cstdint>

namespace cityhunter::support {

/// SplitMix64 (Steele, Lea & Flood): add the golden-ratio increment, then
/// the Stafford variant 13 finalizer. A bijection on 64-bit words whose
/// outputs for consecutive inputs look independent. Rng seeds its engine
/// through it, the fault model hashes its keys with it, and the campaign
/// supervisor jitters retry backoff with it.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace cityhunter::support
