// Radio propagation: log-distance path loss.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "medium/geometry.h"

namespace cityhunter::medium {

/// Log-distance path-loss model:
///   PL(d) = PL(d0) + 10 n log10(d / d0)
/// with d0 = 1 m. Defaults approximate 2.4 GHz indoor-open propagation: the
/// paper's Raspberry Pi attacker transmits at 100 mW (20 dBm) and reaches
/// clients within a few tens of metres.
class LogDistancePathLoss {
 public:
  struct Config {
    double reference_loss_db = 40.0;  // PL at 1 m, 2.4 GHz
    /// Crowded indoor environments (bodies absorb 2.4 GHz): with 20 dBm TX
    /// and -84 dBm sensitivity this yields ~60 m of usable range, matching
    /// a Raspberry Pi attacker in a packed passage.
    double exponent = 3.6;
    double rx_sensitivity_dbm = -84.0;
  };

  LogDistancePathLoss() : cfg_(Config()) {}
  explicit LogDistancePathLoss(Config cfg) : cfg_(cfg) {}

  /// Received power at distance `d` metres for `tx_power_dbm`.
  double rx_power_dbm(double tx_power_dbm, double d) const;

  /// Whether a frame sent at `tx_power_dbm` is decodable at distance `d`.
  bool deliverable(double tx_power_dbm, double d) const {
    return rx_power_dbm(tx_power_dbm, d) >= cfg_.rx_sensitivity_dbm;
  }

  /// Maximum decodable distance for `tx_power_dbm`.
  double max_range(double tx_power_dbm) const;

  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
};

/// Monotone piecewise-linear approximation of log-distance path loss as a
/// function of *squared* distance: PL(s) = ref + 5 n log10(s) with s = d².
/// The grid delivery pipeline already has s from its range² filter, so the
/// LUT replaces the hot path's hypot + log10 with one table lookup and one
/// fused multiply-add.
///
/// Segments are addressed directly from the bit pattern of the IEEE double:
/// the exponent plus the top kSegBitsLog2 mantissa bits select one of
/// 2^kSegBitsLog2 equal-ratio segments per octave of s. Each segment stores
/// the chord of PL between its bit-exact endpoints, so the approximation is
/// continuous, strictly increasing in s (PL is strictly increasing and chords
/// interpolate its knots), and below the exact curve by at most
/// max_error_db() — computed analytically per segment at construction and,
/// with 32 segments/octave and n = 3.6, about 4.5e-4 dB: far below the 1 dB
/// RSSI quantization any 802.11 consumer sees.
class PathLossLut {
 public:
  /// log2 of segments per octave of squared distance (32/octave).
  static constexpr int kSegBitsLog2 = 5;

  PathLossLut() = default;

  /// Builds a table covering s ∈ [1, 2^⌈log2(max_dist_m²)⌉].
  PathLossLut(const LogDistancePathLoss::Config& cfg, double max_dist_m);

  bool covers(double dist_sq) const {
    return !seg_.empty() && dist_sq <= max_dist_sq_;
  }

  /// Approximate received power for a squared distance. dist_sq values below
  /// 1 m² clamp to the reference loss, matching the exact model's clamp.
  double rx_power_dbm_sq(double tx_power_dbm, double dist_sq) const {
    if (dist_sq <= 1.0) return tx_power_dbm - ref_loss_db_;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(dist_sq);
    std::size_t idx =
        (bits >> (52 - kSegBitsLog2)) - (std::uint64_t{1023} << kSegBitsLog2);
    if (idx >= seg_.size()) idx = seg_.size() - 1;  // filter keeps s in range
    const Seg& g = seg_[idx];
    return tx_power_dbm - (g.a + g.b * dist_sq);
  }

  /// Largest (exact − approx) path-loss gap over the covered range, in dB.
  double max_error_db() const { return max_error_db_; }
  double max_dist_sq() const { return max_dist_sq_; }

 private:
  struct Seg {
    double a = 0.0;  // chord intercept, dB
    double b = 0.0;  // chord slope, dB per m²
  };

  std::vector<Seg> seg_;
  double ref_loss_db_ = 0.0;
  double max_dist_sq_ = 0.0;
  double max_error_db_ = 0.0;
};

/// dBm for a milliwatt power (100 mW -> 20 dBm), the unit the paper quotes.
double dbm_from_milliwatts(double mw);

}  // namespace cityhunter::medium
