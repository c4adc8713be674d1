#include "world/district_grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace cityhunter::world {

DistrictGrid::DistrictGrid(Config cfg) : cfg_(cfg) {
  if (cfg_.cols < 1 || cfg_.rows < 1) {
    throw std::invalid_argument("DistrictGrid: cols/rows must be >= 1, got " +
                                std::to_string(cfg_.cols) + "x" +
                                std::to_string(cfg_.rows));
  }
  if (!(cfg_.district_m > 0.0)) {
    throw std::invalid_argument("DistrictGrid: district_m must be > 0");
  }
  if (!(cfg_.gap_m >= 0.0)) {
    throw std::invalid_argument("DistrictGrid: gap_m must be >= 0");
  }
}

bool DistrictGrid::in_district(medium::Position p) const {
  const double pt = pitch();
  const auto local = [pt](double v, int n) -> double {
    const int c = std::clamp(static_cast<int>(std::floor(v / pt)), 0, n - 1);
    return v - c * pt;
  };
  const double lx = local(p.x, cfg_.cols);
  const double ly = local(p.y, cfg_.rows);
  return lx >= 0.0 && lx <= cfg_.district_m && ly >= 0.0 &&
         ly <= cfg_.district_m;
}

int DistrictGrid::owner_column(medium::Position p) const {
  // Shift by half a gap so the boundary between column c and c+1 is the
  // midline of the gap separating them; clamp covers the half gap of slack
  // outside the first/last district.
  const int col =
      static_cast<int>(std::floor((p.x + cfg_.gap_m / 2.0) / pitch()));
  return std::clamp(col, 0, cfg_.cols - 1);
}

medium::Position DistrictGrid::sample_in(Cell c, double u, double v) const {
  constexpr double kInsetM = 0.5;
  const double span = cfg_.district_m - 2.0 * kInsetM;
  const medium::Position o = district_origin(c);
  return {o.x + kInsetM + u * span, o.y + kInsetM + v * span};
}

}  // namespace cityhunter::world
