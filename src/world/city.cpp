#include "world/city.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cityhunter::world {

CityModel::CityModel(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.districts.empty()) cfg_.districts = default_districts();
  for (std::size_t i = 0; i < cfg_.districts.size(); ++i) {
    const District& d = cfg_.districts[i];
    all_.index.push_back(i);
    all_.weights.push_back(d.people_weight);
    const auto kind = static_cast<std::size_t>(d.kind);
    if (kind < kDistrictKinds) {
      by_kind_[kind].index.push_back(i);
      by_kind_[kind].weights.push_back(d.people_weight);
    }
  }
}

std::vector<District> CityModel::default_districts() {
  // Coordinates in a 10 km x 10 km city.
  return {
      {"north-estates", {2500, 8200}, 900, 2.2, DistrictKind::kResidential},
      {"east-estates", {7800, 6500}, 800, 2.0, DistrictKind::kResidential},
      {"south-hill", {3500, 1800}, 700, 1.2, DistrictKind::kResidential},
      {"west-terrace", {1200, 4800}, 650, 1.0, DistrictKind::kResidential},
      {"central-core", {5000, 5000}, 600, 3.0, DistrictKind::kCommercial},
      {"harbour-mall", {6200, 4100}, 420, 2.2, DistrictKind::kCommercial},
      {"old-market", {4100, 6200}, 380, 1.4, DistrictKind::kCommercial},
      {"central-station", {5300, 4600}, 260, 1.8, DistrictKind::kTransport},
      {"north-interchange", {3300, 7400}, 240, 1.2, DistrictKind::kTransport},
      {"city-airport", {8800, 1400}, 280, 1.6, DistrictKind::kAirport},
  };
}

double CityModel::density(Position p) const {
  double sum = 0.0;
  for (const auto& d : cfg_.districts) {
    const double r2 = (p.x - d.center.x) * (p.x - d.center.x) +
                      (p.y - d.center.y) * (p.y - d.center.y);
    sum += d.people_weight * std::exp(-r2 / (2.0 * d.sigma_m * d.sigma_m));
  }
  return sum;
}

Position CityModel::sample_from(support::Rng& rng,
                                const DistrictTable& table) const {
  if (table.index.empty()) {
    throw std::invalid_argument("CityModel: no matching district");
  }
  const auto& d =
      cfg_.districts[table.index[rng.weighted_index(table.weights)]];
  // Sample the district Gaussian, clamped to the city rectangle.
  Position p;
  p.x = std::clamp(rng.normal(d.center.x, d.sigma_m), 0.0, cfg_.width_m);
  p.y = std::clamp(rng.normal(d.center.y, d.sigma_m), 0.0, cfg_.height_m);
  return p;
}

Position CityModel::sample_location(support::Rng& rng) const {
  return sample_from(rng, all_);
}

Position CityModel::sample_location_of_kind(support::Rng& rng,
                                            DistrictKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  if (k >= kDistrictKinds) {
    throw std::invalid_argument("CityModel: no matching district");
  }
  return sample_from(rng, by_kind_[k]);
}

Position CityModel::sample_uniform(support::Rng& rng) const {
  return {rng.uniform(0.0, cfg_.width_m), rng.uniform(0.0, cfg_.height_m)};
}

}  // namespace cityhunter::world
