// Waypoint mobility over a DistrictGrid, built for the sharded city.
//
// Each walker owns a private forked RNG, so the number and order of its
// draws depend only on its own trajectory (placement, then one waypoint
// draw per arrival) — never on how many other walkers exist, which shard
// simulates it, or how many worker threads advance the shards. That
// self-determined draw schedule is one leg of the sharded city's
// byte-identity guarantee (DESIGN.md §5h). Mobility that draws from one
// shared stream in global event order lacks this property and cannot be
// sharded.
//
// Waypoints are sampled inside district squares only, so a walker dwells in
// districts and transits gaps on straight segments; the sharded city keeps
// it radio-silent while in_gap().
#pragma once

#include "medium/geometry.h"
#include "support/rng.h"
#include "world/district_grid.h"

namespace cityhunter::mobility {

class DistrictWalker {
 public:
  /// Inert walker (no grid); step() is invalid until one is assigned. Lets
  /// agent structs be default-constructed before placement.
  DistrictWalker() = default;

  /// Places the walker uniformly inside a uniformly chosen district and
  /// draws its first waypoint, both from `rng` (which the walker keeps).
  DistrictWalker(const world::DistrictGrid* grid, support::Rng rng,
                 double speed_mps);

  medium::Position pos() const { return pos_; }
  medium::Position waypoint() const { return wp_; }

  /// Advance `dt_s` seconds toward the waypoint; on arrival snap to it and
  /// draw the next one. Returns the new position.
  medium::Position step(double dt_s);

 private:
  void pick_waypoint();

  const world::DistrictGrid* grid_ = nullptr;
  support::Rng rng_{0};
  double speed_mps_ = 1.4;
  medium::Position pos_{};
  medium::Position wp_{};
};

}  // namespace cityhunter::mobility
