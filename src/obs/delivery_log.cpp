#include "obs/delivery_log.h"

#include <bit>

namespace cityhunter::obs {

namespace {

/// MurmurHash3's fmix64: a bijection on 64-bit words in which every input
/// bit reaches every output bit.
inline std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::uint64_t record_hash(const DeliveryRecord& r) {
  // Each field gets its own fmix64 round under its own key, so the five
  // rounds run side by side rather than as one serial chain, and a value
  // hashes differently in each field (swapping tx_id and rx_id moves the
  // hash). A final round over their xor keeps the digest's sum from
  // splitting into per-field sums, which could not tell which receiver
  // heard which frame. Each step is a bijection of one field's word, so
  // flipping any bit of any field changes the hash.
  const std::uint64_t a =
      fmix64(static_cast<std::uint64_t>(r.time_us) ^ 0x9e3779b97f4a7c15ULL);
  const std::uint64_t b = fmix64(r.tx_id ^ 0xbf58476d1ce4e5b9ULL);
  const std::uint64_t c = fmix64(r.rx_id ^ 0x94d049bb133111ebULL);
  const std::uint64_t d = fmix64(r.rssi_bits ^ 0xd6e8feb86659fd93ULL);
  const std::uint64_t e = fmix64(r.channel ^ 0xa0761d6478bd642fULL);
  return fmix64(a ^ b ^ c ^ d ^ e);
}

void DeliveryLog::record(std::int64_t time_us, std::uint64_t tx_id,
                         std::uint64_t rx_id, double rssi_dbm,
                         std::uint8_t channel) {
  const DeliveryRecord r{time_us, tx_id, rx_id,
                         std::bit_cast<std::uint64_t>(rssi_dbm), channel};
  ++count_;
  digest_ += record_hash(r);  // mod-2^64 sum: order-independent, multiset
  if (keep_) records_.push_back(r);
}

std::vector<DeliveryRecord> merge_by_input_order(
    std::span<const DeliveryLog* const> logs) {
  std::size_t total = 0;
  for (const DeliveryLog* log : logs) total += log->records().size();
  std::vector<DeliveryRecord> merged;
  merged.reserve(total);
  for (const DeliveryLog* log : logs) {
    merged.insert(merged.end(), log->records().begin(), log->records().end());
  }
  return merged;
}

std::uint64_t combined_digest(std::span<const DeliveryLog* const> logs) {
  std::uint64_t d = 0;
  for (const DeliveryLog* log : logs) d += log->digest();
  return d;
}

}  // namespace cityhunter::obs
