#include "world/photos.h"

namespace cityhunter::world {

PhotoSet PhotoSet::generate(const CityModel& city, support::Rng& rng,
                            const PhotoSetConfig& cfg) {
  PhotoSet set;
  set.positions_.reserve(static_cast<std::size_t>(cfg.photo_count));
  // Tourists photograph landmarks disproportionately: the airport is a
  // photo magnet far beyond its share of daily traffic, which is exactly
  // what lets the heat map surface '#HKAirport Free WiFi' despite its
  // modest AP count (Table IV).
  static constexpr DistrictKind kTouristKinds[] = {
      DistrictKind::kCommercial, DistrictKind::kTransport,
      DistrictKind::kAirport};
  static const std::vector<double> kKindWeights{0.45, 0.15, 0.40};
  for (int i = 0; i < cfg.photo_count; ++i) {
    if (rng.chance(cfg.tourist_fraction)) {
      const auto kind = kTouristKinds[rng.weighted_index(kKindWeights)];
      set.positions_.push_back(city.sample_location_of_kind(rng, kind));
    } else {
      set.positions_.push_back(city.sample_location(rng));
    }
  }
  return set;
}

}  // namespace cityhunter::world
