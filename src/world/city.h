// Synthetic city model.
//
// Substitutes for Hong Kong in the paper: a rectangular city with districts
// (residential belts, commercial cores, transport hubs, one airport) whose
// ground-truth population density drives both AP placement and where people
// photograph — the two signals the heat-map pipeline (heatmap/) consumes.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "medium/geometry.h"
#include "support/rng.h"

namespace cityhunter::world {

using medium::Position;

enum class DistrictKind {
  kResidential,
  kCommercial,   // malls, office cores — high daytime density
  kTransport,    // railway stations, interchanges
  kAirport,      // few APs, very many distinct visitors
};

inline constexpr std::size_t kDistrictKinds = 4;

/// A Gaussian population blob.
struct District {
  std::string name;
  Position center;
  double sigma_m = 500.0;       // spatial spread
  double people_weight = 1.0;   // relative share of the city's population
  DistrictKind kind = DistrictKind::kResidential;
};

class CityModel {
 public:
  struct Config {
    double width_m = 10000.0;
    double height_m = 10000.0;
    std::vector<District> districts;  // empty -> default_districts()
  };

  CityModel() : CityModel(Config()) {}
  explicit CityModel(Config cfg);

  /// The default synthetic city: 4 residential belts, 3 commercial cores,
  /// 2 railway hubs and 1 airport, echoing the Kowloon/Lantau examples.
  static std::vector<District> default_districts();

  double width() const { return cfg_.width_m; }
  double height() const { return cfg_.height_m; }
  const std::vector<District>& districts() const { return cfg_.districts; }

  /// Relative people density at `p` (sum of district Gaussians; not
  /// normalised).
  double density(Position p) const;

  /// Sample a location with probability proportional to density. The
  /// optional kind filter restricts to districts of that kind. Neither
  /// allocates: the district tables are built with the model.
  Position sample_location(support::Rng& rng) const;
  Position sample_location_of_kind(support::Rng& rng, DistrictKind kind) const;

  /// Uniformly random location in the city rectangle.
  Position sample_uniform(support::Rng& rng) const;

  const District& district(std::size_t i) const { return cfg_.districts[i]; }

 private:
  /// Districts a draw picks from, with their people weights.
  struct DistrictTable {
    std::vector<std::size_t> index;
    std::vector<double> weights;
  };

  Position sample_from(support::Rng& rng, const DistrictTable& table) const;
  Config cfg_;
  DistrictTable all_;
  std::array<DistrictTable, kDistrictKinds> by_kind_;
};

}  // namespace cityhunter::world
