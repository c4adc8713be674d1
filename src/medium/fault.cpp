#include "medium/fault.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cityhunter::medium {

namespace {

/// SplitMix64 finalizer — the same mixer Rng uses for seeding, reproduced
/// here to hash the (seed, radio, sequence[, receiver]) key into a stream
/// seed or a link draw.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultModel::FaultModel(Config cfg) : cfg_(cfg) {
  if (!(cfg.per_width_db > 0.0)) {
    throw std::invalid_argument("FaultModel: per_width_db must be positive");
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
  if (!(cfg.slot_time_us >= 0.0)) {
    throw std::invalid_argument("FaultModel: slot_time_us must be >= 0");
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

support::Rng FaultModel::stream(std::uint64_t tx_radio,
                                std::uint64_t frame_seq) const {
  // One stream per (seed, tx radio, frame sequence), consumed only by the
  // sender's own draws in Medium::transmit. Per-receiver erasures do not
  // touch it (see link_draw), so the stream layout is the same whoever is
  // in range.
  return support::Rng(mix(cfg_.seed ^ mix(tx_radio ^ mix(frame_seq))));
}

double FaultModel::link_draw(std::uint64_t tx_radio, std::uint64_t frame_seq,
                             std::uint64_t rx_radio) const {
  // Keyed by the receiver itself, not by its rank in the fanout: adding or
  // removing a bystander leaves every other link's draw unchanged, and the
  // grid pipeline and the scan oracle agree without sharing a draw order.
  const std::uint64_t h =
      mix(mix(cfg_.seed ^ mix(tx_radio ^ mix(frame_seq))) ^ mix(rx_radio));
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // top 53 bits
}

void FaultModel::corrupt(std::vector<std::uint8_t>& wire,
                         support::Rng& rng) const {
  if (wire.empty()) return;
  const auto flips =
      static_cast<int>(rng.uniform_int(1, cfg_.max_bit_flips));
  for (int i = 0; i < flips; ++i) {
    const auto bit = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) * 8 - 1));
    wire[bit / 8] = static_cast<std::uint8_t>(wire[bit / 8] ^
                                              (1u << (bit % 8)));
  }
}

SimTime FaultModel::backoff(int attempt, support::Rng& rng) const {
  // cw doubles per retry: cw(k) = min(cw_max, (cw_min + 1) * 2^k - 1).
  const int shift = std::min(attempt, 20);  // avoid overflow for huge limits
  const std::int64_t grown =
      (static_cast<std::int64_t>(cfg_.cw_min) + 1) << shift;
  const std::int64_t cw =
      std::min<std::int64_t>(cfg_.cw_max, grown - 1);
  const std::int64_t slots = rng.uniform_int(0, cw);
  return SimTime::microseconds(static_cast<std::int64_t>(
      static_cast<double>(slots) * cfg_.slot_time_us));
}

}  // namespace cityhunter::medium
