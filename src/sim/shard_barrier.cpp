#include "sim/shard_barrier.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace cityhunter::sim {

ConservativeBarrier::ConservativeBarrier(Config cfg)
    : lookahead_(cfg.lookahead), horizon_(cfg.horizon) {
  if (lookahead_.us() <= 0) {
    throw std::invalid_argument(
        "ConservativeBarrier: lookahead must be positive, got " +
        std::to_string(lookahead_.us()) + " us");
  }
  if (horizon_.us() < 0) {
    throw std::invalid_argument("ConservativeBarrier: negative horizon");
  }
  // ceil(horizon / lookahead); a zero horizon still runs one (empty) epoch
  // so setup-only scenarios exercise the same code path.
  epochs_ = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (horizon_.us() + lookahead_.us() - 1) /
                                    lookahead_.us()));
}

support::SimTime ConservativeBarrier::epoch_end(std::size_t i) const {
  const std::int64_t end =
      static_cast<std::int64_t>(i + 1) * lookahead_.us();
  return support::SimTime::microseconds(std::min(end, horizon_.us()));
}

support::SimTime ConservativeBarrier::max_safe_lookahead(double gap_m,
                                                         double range_m,
                                                         double speed_mps,
                                                         double tick_s,
                                                         double margin_m) {
  if (!(speed_mps > 0.0) || !(tick_s > 0.0)) {
    throw std::invalid_argument(
        "max_safe_lookahead: speed and tick must be positive");
  }
  // speed * (tick + epoch) + margin <= gap/2 - range, solved for epoch.
  const double budget_m = gap_m / 2.0 - range_m - margin_m;
  const double epoch_s = budget_m / speed_mps - tick_s;
  if (!(epoch_s > 0.0)) {
    throw std::invalid_argument(
        "max_safe_lookahead: gap " + std::to_string(gap_m) +
        " m is too narrow for range " + std::to_string(range_m) +
        " m at " + std::to_string(speed_mps) + " m/s (need gap >= " +
        std::to_string(2.0 * (range_m + margin_m + speed_mps * tick_s)) +
        " m plus room for a positive epoch)");
  }
  // SimTime::seconds casts epoch_s * 1e6 to int64 microseconds; 2^63 is the
  // first value that cast cannot hold.
  if (!(epoch_s * 1e6 < 0x1p63)) {
    throw std::invalid_argument(
        "max_safe_lookahead: gap " + std::to_string(gap_m) + " m, range " +
        std::to_string(range_m) + " m and " + std::to_string(speed_mps) +
        " m/s give a lookahead of " + std::to_string(epoch_s) +
        " s, beyond what SimTime holds");
  }
  return support::SimTime::seconds(epoch_s);
}

}  // namespace cityhunter::sim
