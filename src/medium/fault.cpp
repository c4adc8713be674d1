#include "medium/fault.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/hash.h"

namespace cityhunter::medium {

namespace {

using support::splitmix64;

/// The key hashed with a receiver id or a TX decision code.
std::uint64_t keyed(std::uint64_t key, std::uint64_t id) {
  return splitmix64(key ^ splitmix64(id));
}

/// Top 53 bits as a uniform double in [0, 1).
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Multiply-shift: floor(h * n / 2^64), uniform in [0, n) for n >= 1.
/// 2^64 is not a multiple of n in general, so each outcome takes
/// floor(2^64 / n) or ceil(2^64 / n) of the 2^64 hashes: its probability
/// is within 2^-64 of 1/n, a relative bias below n * 2^-64 (< 2^-33 for
/// any int-sized n drawn here).
std::uint64_t below(std::uint64_t h, std::uint64_t n) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * n) >> 64);
}

}  // namespace

FaultModel::FaultModel(Config cfg) : cfg_(cfg) {
  if (!std::isfinite(cfg.noise_floor_dbm)) {
    throw std::invalid_argument("FaultModel: noise_floor_dbm must be finite");
  }
  if (!std::isfinite(cfg.per_snr_mid_db)) {
    throw std::invalid_argument("FaultModel: per_snr_mid_db must be finite");
  }
  if (!(cfg.per_width_db > 0.0 && std::isfinite(cfg.per_width_db))) {
    throw std::invalid_argument(
        "FaultModel: per_width_db must be positive and finite");
  }
  if (!(cfg.ambient_loss >= 0.0 && cfg.ambient_loss <= 1.0)) {
    throw std::invalid_argument("FaultModel: ambient_loss must be in [0,1]");
  }
  if (!(cfg.corruption_rate >= 0.0 && cfg.corruption_rate <= 1.0)) {
    throw std::invalid_argument("FaultModel: corruption_rate must be in [0,1]");
  }
  if (cfg.max_bit_flips < 1) {
    throw std::invalid_argument("FaultModel: max_bit_flips must be >= 1");
  }
  if (cfg.retry_limit < 0) {
    throw std::invalid_argument("FaultModel: retry_limit must be >= 0");
  }
  if (cfg.cw_min < 0 || cfg.cw_max < cfg.cw_min) {
    throw std::invalid_argument("FaultModel: need 0 <= cw_min <= cw_max");
  }
  // 1000 µs is fifty 802.11b slots: a retry then waits at most
  // cw_max * 1000 µs, far inside SimTime's int64 microseconds.
  if (!(cfg.slot_time_us >= 0.0 && cfg.slot_time_us <= 1000.0)) {
    throw std::invalid_argument(
        "FaultModel: slot_time_us must be in [0, 1000]");
  }
}

double FaultModel::per(double rx_power_dbm) const {
  const double snr = snr_db(rx_power_dbm);
  return 1.0 / (1.0 + std::exp((snr - cfg_.per_snr_mid_db) /
                               cfg_.per_width_db));
}

double FaultModel::link_loss(double rx_power_dbm) const {
  const double p = per(rx_power_dbm);
  return cfg_.ambient_loss + (1.0 - cfg_.ambient_loss) * p;
}

FaultModel::TxKey FaultModel::tx_key(std::uint64_t tx_radio,
                                     std::uint64_t frame_seq) const {
  return TxKey{splitmix64(cfg_.seed ^
                          splitmix64(tx_radio ^ splitmix64(frame_seq)))};
}

double FaultModel::link_draw(std::uint64_t tx_radio, std::uint64_t frame_seq,
                             std::uint64_t rx_radio) const {
  // Keyed by the receiver itself, not by its rank in the fanout: adding or
  // removing a bystander leaves every other link's draw unchanged, and the
  // grid pipeline and the scan oracle agree without sharing a draw order.
  return unit(keyed(tx_key(tx_radio, frame_seq).word, rx_radio));
}

std::uint64_t FaultModel::tx_draw(TxKey key, TxDecision decision,
                                  std::uint64_t index) {
  return keyed(key.word,
               (static_cast<std::uint64_t>(decision) << 56) | index);
}

bool FaultModel::collides(TxKey key, int attempt) const {
  return unit(tx_draw(key, TxDecision::kCollision,
                      static_cast<std::uint64_t>(attempt))) <
         cfg_.ambient_loss;
}

bool FaultModel::corrupts(TxKey key, int attempt) const {
  return unit(tx_draw(key, TxDecision::kCorruption,
                      static_cast<std::uint64_t>(attempt))) <
         cfg_.corruption_rate;
}

int FaultModel::corrupt(std::vector<std::uint8_t>& wire, TxKey key) const {
  if (wire.empty()) return 0;
  const std::uint64_t bits = wire.size() * 8;
  const std::uint64_t flips =
      1 + below(tx_draw(key, TxDecision::kFlipCount, 0),
                std::min<std::uint64_t>(
                    static_cast<std::uint64_t>(cfg_.max_bit_flips), bits));
  const auto position = [&](std::uint64_t candidate) {
    return below(tx_draw(key, TxDecision::kFlipBit, candidate), bits);
  };
  // Candidate c is skipped if it repeats an earlier candidate's position,
  // so the flips are distinct (two flips of one bit would cancel). The
  // earlier positions are re-hashed rather than stored: a burst flips a
  // handful of bits, and any count up to `bits` needs no buffer.
  std::uint64_t flipped = 0;
  for (std::uint64_t c = 0; flipped < flips; ++c) {
    const std::uint64_t bit = position(c);
    bool repeat = false;
    for (std::uint64_t earlier = 0; earlier < c && !repeat; ++earlier) {
      repeat = position(earlier) == bit;
    }
    if (repeat) continue;
    wire[bit / 8] = static_cast<std::uint8_t>(wire[bit / 8] ^
                                              (1u << (bit % 8)));
    ++flipped;
  }
  return static_cast<int>(flips);
}

SimTime FaultModel::backoff(TxKey key, int attempt) const {
  // cw doubles per retry: cw(k) = min(cw_max, (cw_min + 1) * 2^k - 1).
  const int shift = std::min(attempt, 20);  // avoid overflow for huge limits
  const std::int64_t grown =
      (static_cast<std::int64_t>(cfg_.cw_min) + 1) << shift;
  const std::int64_t cw =
      std::min<std::int64_t>(cfg_.cw_max, grown - 1);
  const std::uint64_t slots =
      below(tx_draw(key, TxDecision::kBackoff,
                    static_cast<std::uint64_t>(attempt)),
            static_cast<std::uint64_t>(cw) + 1);
  return SimTime::microseconds(static_cast<std::int64_t>(
      static_cast<double>(slots) * cfg_.slot_time_us));
}

}  // namespace cityhunter::medium
