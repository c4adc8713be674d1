// Per-shard delivery observation buffer for the sharded city (sim/shard).
//
// One DeliveryLog belongs to one shard, appended single-threaded from that
// shard's frame sinks while its event loop runs. Cross-shard aggregation
// follows the PR 4 trace-exporter rule — merge by the shard's input-order
// index, never by harvest/thread order — so the merged stream is identical
// at any worker count.
//
// Identity across *shard counts* needs one more step: the same city split
// into 1 vs 4 shards delivers the same multiset of frames, but interleaved
// differently between the per-shard streams. The canonical form is
// therefore the sorted multiset, and the streaming digest below is
// order-independent by construction (a mod-2^64 SUM of per-record hashes —
// sum, not xor, so duplicate records accumulate multiplicity instead of
// cancelling). Benches compare digests without materialising millions of
// records; tests materialise and sort.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <vector>

namespace cityhunter::obs {

/// One delivered frame, keyed entirely by world-level (shard-invariant)
/// identifiers: global radio ids, sim time, and the exact RSSI bit pattern.
struct DeliveryRecord {
  std::int64_t time_us = 0;
  std::uint64_t tx_id = 0;        // global (world) id of the transmitter
  std::uint64_t rx_id = 0;        // global (world) id of the receiver
  std::uint64_t rssi_bits = 0;    // bit_cast of the delivered RSSI double
  std::uint8_t channel = 0;

  auto operator<=>(const DeliveryRecord&) const = default;
};

/// Word-wise hash of the record's five fields (no struct padding): one
/// fmix64 round per field under a per-field key, then one over their xor.
/// Any single-bit change to any field changes it, and so does swapping
/// tx_id and rx_id (tests/shard_test.cpp pins two values).
std::uint64_t record_hash(const DeliveryRecord& r);

class DeliveryLog {
 public:
  /// `keep_records` retains every record for test-side sorting/merging;
  /// benches leave it off and rely on the streaming digest + count.
  explicit DeliveryLog(bool keep_records = false) : keep_(keep_records) {}

  void record(std::int64_t time_us, std::uint64_t tx_id, std::uint64_t rx_id,
              double rssi_dbm, std::uint8_t channel);

  std::uint64_t count() const { return count_; }
  /// Order-independent multiset digest of everything recorded so far.
  std::uint64_t digest() const { return digest_; }
  const std::vector<DeliveryRecord>& records() const { return records_; }

 private:
  std::vector<DeliveryRecord> records_;
  std::uint64_t count_ = 0;
  std::uint64_t digest_ = 0;
  bool keep_ = false;
  /// The last record's (time, tx, channel) and the xor of their three
  /// record_hash rounds, reused while the next records share all three.
  /// Validity is a flag: any time, sender and channel can be recorded.
  bool shared_valid_ = false;
  std::uint8_t shared_channel_ = 0;
  std::int64_t shared_time_us_ = 0;
  std::uint64_t shared_tx_id_ = 0;
  std::uint64_t shared_ = 0;
};

/// Concatenate retained records by shard input order (log index), the same
/// stable rule the trace exporter uses for per-run buffers.
std::vector<DeliveryRecord> merge_by_input_order(
    std::span<const DeliveryLog* const> logs);

/// Combined digest over per-shard logs. Commutative and associative, so the
/// value is independent of both the shard partition and the merge order.
std::uint64_t combined_digest(std::span<const DeliveryLog* const> logs);

}  // namespace cityhunter::obs
