// Waypoint mobility over a DistrictGrid, built for the sharded city.
//
// Each walker's draws are keyed: draw i is support::keyed(key, i), a pure
// function of the walker's 64-bit key and its own draw count, so the draws
// depend only on its own trajectory (placement, then one waypoint per
// arrival) — never on how many other walkers exist, which shard simulates
// it, or how many worker threads advance the shards. That self-determined
// draw schedule is one leg of the sharded city's byte-identity guarantee
// (DESIGN.md §5h). Mobility that draws from one shared stream in global
// event order lacks this property and cannot be sharded.
//
// Waypoints are sampled inside district squares only, so a walker dwells in
// districts and transits gaps on straight segments; the sharded city keeps
// it radio-silent while in_gap().
#pragma once

#include <cstdint>

#include "medium/geometry.h"
#include "support/hash.h"
#include "world/district_grid.h"

namespace cityhunter::mobility {

class DistrictWalker {
 public:
  /// Inert walker (no grid); step() is invalid until one is assigned. Lets
  /// agent structs be default-constructed before placement.
  DistrictWalker() = default;

  /// Places the walker uniformly inside a uniformly chosen district and
  /// draws its first waypoint, both from the draws keyed by `key`.
  DistrictWalker(const world::DistrictGrid* grid, std::uint64_t key,
                 double speed_mps);

  medium::Position pos() const { return pos_; }
  medium::Position waypoint() const { return wp_; }

  /// Advance `dt_s` seconds toward the waypoint; on arrival snap to it and
  /// draw the next one. Returns the new position.
  medium::Position step(double dt_s);

 private:
  /// A uniform point in a uniformly chosen district: three draws.
  medium::Position draw_point();
  std::uint64_t draw() { return support::keyed(key_, draws_++); }

  const world::DistrictGrid* grid_ = nullptr;
  std::uint64_t key_ = 0;
  std::uint64_t draws_ = 0;
  double speed_mps_ = 1.4;
  medium::Position pos_{};
  medium::Position wp_{};
};

}  // namespace cityhunter::mobility
