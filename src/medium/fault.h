// Deterministic fault injection for the simulated medium.
//
// The paper's attack runs over real 2.4 GHz air in crowded venues: probe
// responses are lost to collisions, absorption and contention, and the
// 40-response scan budget only matters *because* the channel is imperfect.
// FaultModel makes the simulated channel imperfect in a reproducible way:
//
//   * Per-receiver erasure with an SNR-derived packet-error rate (logistic
//     curve over log-distance RX power above a configurable noise floor),
//     plus an SNR-independent ambient collision floor.
//   * Interference bursts that flip distinct bits of the serialized buffer, so
//     corrupted frames are rejected by the CRC-32 FCS in dot11::parse — the
//     same path a real NIC uses to drop bad frames.
//   * 802.11 retransmission for unicast management frames: an attempt that
//     collides (the addressed receiver gets nothing, so no ACK comes back)
//     or is hit by a burst is retried up to `retry_limit` times with
//     exponential contention backoff, consuming airtime per attempt — the
//     link layer repairs ambient loss by spending scan-budget time. Only
//     the edge-of-range SNR loss, which no retransmission repairs, still
//     erases unicast frames per receiver. Broadcasts are unacknowledged and
//     get exactly one attempt with the full per-receiver loss, as per the
//     standard.
//
// Every fault decision is a keyed hash draw, not a draw from a seeded random
// stream. A transmission's key hashes (seed, tx radio, frame sequence); a
// per-link erasure draw hashes that key with the receiver's radio id, and a
// TX-side draw (collision, corruption, backoff, flip count, flip position)
// hashes it with a (decision, attempt or index) code from a range of ids no
// Medium hands out. So a receiver's loss pattern does not depend on which
// other radios were in range, no TX decision reuses a receiver's draw, and a
// lossy run is bit-identical no matter how campaigns are interleaved across
// threads.
//
// Disabled by default: with `Config{}.enabled == false` the medium makes no
// fault draws and no timing changes, and every existing figure stays
// byte-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "support/sim_time.h"

namespace cityhunter::medium {

using support::SimTime;

class FaultModel {
 public:
  struct Config {
    /// Master switch. Off = perfect channel, zero overhead, no draws.
    bool enabled = false;

    /// Receiver noise floor (thermal + steady interference). SNR of a frame
    /// is its log-distance RX power minus this.
    double noise_floor_dbm = -92.0;

    /// Logistic PER curve: per(snr) = 1 / (1 + exp((snr - mid) / width)).
    /// Monotonically increasing in distance by construction.
    double per_snr_mid_db = 8.0;
    double per_width_db = 2.0;

    /// SNR-independent collision probability: hidden-node collisions and
    /// foreign bursts that no link budget predicts. Applied per delivery
    /// for broadcasts; per TX attempt (inside the ACK-driven retry loop)
    /// for unicast frames.
    double ambient_loss = 0.0;

    /// Probability that one TX attempt is corrupted by an interference
    /// burst. Corruption flips real bits in the wire bytes; the FCS check
    /// rejects the frame at every receiver.
    double corruption_rate = 0.0;
    /// Distinct bits flipped per corrupted frame (1..max_bit_flips,
    /// uniform; never more than the frame has).
    int max_bit_flips = 4;

    /// dot11ShortRetryLimit for unicast management frames.
    int retry_limit = 4;
    /// Contention window bounds (slots) for exponential backoff: retry k
    /// waits uniform[0, min(cw_max, (cw_min + 1) << k  - 1)] slots.
    int cw_min = 15;
    int cw_max = 1023;
    /// 802.11b long slot time, in [0, 1000].
    double slot_time_us = 20.0;

    /// Root of every fault draw's key. run_campaign() overrides this per
    /// run from the run's labelled RNG fork.
    std::uint64_t seed = 0xC17B0A7ULL;
  };

  /// One transmission's key: a hash of (config seed, tx radio id,
  /// per-radio frame sequence). Every draw below is a pure function of a
  /// key and its own (decision, attempt or index), so delivery order and
  /// thread scheduling cannot perturb it.
  struct TxKey {
    std::uint64_t word = 0;
    bool operator==(const TxKey&) const = default;
  };

  /// The sender's decisions about one transmission. Numbered from 1, so
  /// every decision code (see tx_draw) is at least 2^56.
  enum class TxDecision : std::uint64_t {
    kCollision = 1,  // per attempt: the addressed receiver got nothing
    kCorruption,     // per attempt: an interference burst hit it
    kBackoff,        // per retry: contention slots before it
    kFlipCount,      // once: bits a delivered burst flips
    kFlipBit,        // per candidate: one flipped bit's position
  };

  FaultModel() = default;
  /// Validates the config; throws std::invalid_argument on nonsense
  /// (probabilities outside [0,1]; a non-finite noise floor, PER midpoint,
  /// PER width or slot time; a non-positive PER width, a negative slot
  /// time, max_bit_flips < 1, retry_limit < 0, cw_max < cw_min).
  explicit FaultModel(Config cfg);

  const Config& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled; }

  double snr_db(double rx_power_dbm) const {
    return rx_power_dbm - cfg_.noise_floor_dbm;
  }

  /// SNR-derived packet-error rate at a given RX power. Monotonically
  /// non-increasing in RX power (so non-decreasing in distance).
  double per(double rx_power_dbm) const;

  /// Total per-link erasure probability for an unacknowledged (broadcast)
  /// delivery: SNR-derived PER combined with the ambient collision floor
  /// (independent events). Unicast deliveries pay the ambient floor in the
  /// TX retry loop instead and use bare per() at the receiver.
  double link_loss(double rx_power_dbm) const;

  TxKey tx_key(std::uint64_t tx_radio, std::uint64_t frame_seq) const;

  /// Uniform draw in [0, 1) for one link of one transmission, a pure
  /// function of (config seed, tx radio id, frame sequence, rx radio id).
  /// The link is erased iff the draw is below its loss probability.
  double link_draw(std::uint64_t tx_radio, std::uint64_t frame_seq,
                   std::uint64_t rx_radio) const;

  /// Uniform 64-bit draw for one TX-side decision: the link draw's hash of
  /// the key with, in the receiver's place, the code
  /// decision << 56 | index. Radio ids count up from 1, so no receiver a
  /// Medium hands out has a code's id (index < 2^56).
  static std::uint64_t tx_draw(TxKey key, TxDecision decision,
                               std::uint64_t index);

  /// Whether attempt `attempt` (0 = first transmission) of a unicast frame
  /// collides at its receiver, with probability ambient_loss.
  bool collides(TxKey key, int attempt) const;

  /// Whether attempt `attempt` is hit by an interference burst, with
  /// probability corruption_rate.
  bool corrupts(TxKey key, int attempt) const;

  /// Flip 1..min(max_bit_flips, bits in `wire`) distinct bits of `wire` in
  /// place (count uniform); returns the count. A drawn position that
  /// repeats an earlier one is redrawn.
  int corrupt(std::vector<std::uint8_t>& wire, TxKey key) const;

  /// Contention backoff before retry `attempt` (1-based): uniform slots in
  /// [0, cw(attempt)] at slot_time_us per slot.
  SimTime backoff(TxKey key, int attempt) const;

 private:
  Config cfg_{};
};

}  // namespace cityhunter::medium
