// Conservative time-sync barrier for the sharded city (DESIGN.md §5h).
//
// Classic conservative parallel discrete-event simulation: every shard may
// safely advance to the same epoch boundary without synchronising, as long
// as nothing one shard does before the boundary can affect another shard
// until after it. Here the "lookahead" is geometric rather than message-
// based — districts are RF-isolated by guard gaps, so the only cross-shard
// interaction is a walker carrying its radio across a gap midline, and the
// epoch length is chosen so the walker cannot get within radio range of the
// destination shard's districts before the barrier at which it is handed
// off. All shards then run_until(epoch_end) in parallel, exchange handoffs
// single-threaded, and repeat.
#pragma once

#include <cstddef>

#include "support/sim_time.h"

namespace cityhunter::sim {

class ConservativeBarrier {
 public:
  struct Config {
    /// Epoch length: the conservative lookahead. Must be positive.
    support::SimTime lookahead;
    /// Total simulated horizon. The last epoch is truncated to it.
    support::SimTime horizon;
  };

  explicit ConservativeBarrier(Config cfg);

  std::size_t epochs() const { return epochs_; }
  /// End of epoch `i` (0-based): min((i + 1) * lookahead, horizon).
  support::SimTime epoch_end(std::size_t i) const;

  /// The longest lookahead that keeps a walker RF-contained: a client that
  /// crosses a gap midline is detected at its next position tick (up to
  /// `tick_s` late) and handed off at the next barrier (up to the epoch
  /// late), so by then it has penetrated at most speed × (tick + epoch)
  /// past the midline. Containment needs that penetration plus `margin_m`
  /// to stay short of gap/2 − range. Throws std::invalid_argument when the
  /// gap is too narrow for even a zero-length epoch, or when the lookahead
  /// does not fit SimTime (an enormous or infinite gap, a vanishing speed).
  static support::SimTime max_safe_lookahead(double gap_m, double range_m,
                                             double speed_mps, double tick_s,
                                             double margin_m);

 private:
  support::SimTime lookahead_;
  support::SimTime horizon_;
  std::size_t epochs_ = 0;
};

}  // namespace cityhunter::sim
