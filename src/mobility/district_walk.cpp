#include "mobility/district_walk.h"

#include <cmath>

namespace cityhunter::mobility {

DistrictWalker::DistrictWalker(const world::DistrictGrid* grid,
                               std::uint64_t key, double speed_mps)
    : grid_(grid), key_(key), speed_mps_(speed_mps) {
  pos_ = draw_point();
  wp_ = draw_point();
}

medium::Position DistrictWalker::draw_point() {
  const auto cell = grid_->cell(static_cast<int>(support::below(
      draw(), static_cast<std::uint64_t>(grid_->districts()))));
  const double u = support::unit(draw());
  const double v = support::unit(draw());
  return grid_->sample_in(cell, u, v);
}

medium::Position DistrictWalker::step(double dt_s) {
  const double dx = wp_.x - pos_.x;
  const double dy = wp_.y - pos_.y;
  const double d = std::hypot(dx, dy);
  const double step_m = speed_mps_ * dt_s;
  if (d <= step_m) {
    pos_ = wp_;
    wp_ = draw_point();
  } else {
    pos_.x += dx / d * step_m;
    pos_.y += dy / d * step_m;
  }
  return pos_;
}

}  // namespace cityhunter::mobility
