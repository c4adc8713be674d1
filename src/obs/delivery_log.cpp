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

/// The time, transmitter and channel rounds of record_hash, xored: the
/// part every receiver of one transmission shares.
inline std::uint64_t shared_rounds(std::int64_t time_us, std::uint64_t tx_id,
                                   std::uint8_t channel) {
  return fmix64(static_cast<std::uint64_t>(time_us) ^ 0x9e3779b97f4a7c15ULL) ^
         fmix64(tx_id ^ 0xbf58476d1ce4e5b9ULL) ^
         fmix64(channel ^ 0xa0761d6478bd642fULL);
}

/// record_hash from the shared rounds and the receiver's two fields.
inline std::uint64_t finish_hash(std::uint64_t shared, std::uint64_t rx_id,
                                 std::uint64_t rssi_bits) {
  return fmix64(shared ^ fmix64(rx_id ^ 0x94d049bb133111ebULL) ^
                fmix64(rssi_bits ^ 0xd6e8feb86659fd93ULL));
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
  return finish_hash(shared_rounds(r.time_us, r.tx_id, r.channel), r.rx_id,
                     r.rssi_bits);
}

void DeliveryLog::record(std::int64_t time_us, std::uint64_t tx_id,
                         std::uint64_t rx_id, double rssi_dbm,
                         std::uint8_t channel) {
  const std::uint64_t rssi_bits = std::bit_cast<std::uint64_t>(rssi_dbm);
  // The receivers of one transmission arrive back to back with the same
  // time, sender and channel; their rounds are hashed once per change. Xor
  // is associative, so every record's hash is record_hash's.
  if (!shared_valid_ || time_us != shared_time_us_ || tx_id != shared_tx_id_ ||
      channel != shared_channel_) {
    shared_time_us_ = time_us;
    shared_tx_id_ = tx_id;
    shared_channel_ = channel;
    shared_ = shared_rounds(time_us, tx_id, channel);
    shared_valid_ = true;
  }
  ++count_;
  // mod-2^64 sum: order-independent, multiset
  digest_ += finish_hash(shared_, rx_id, rssi_bits);
  if (keep_) {
    records_.push_back({time_us, tx_id, rx_id, rssi_bits, channel});
  }
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
