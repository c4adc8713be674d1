// The shrunken World that campaign-level tests build: a fraction of the
// default AP population and photo set, so a World builds in milliseconds.
#pragma once

#include <cstdint>

#include "sim/scenario.h"

namespace cityhunter {

/// The default scenario with 800 residential, 400 small-venue and 150
/// enterprise APs and 8,000 photos, seeded `seed`.
inline sim::ScenarioConfig small_scenario(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.aps.residential_ap_count = 800;
  cfg.aps.small_venue_count = 400;
  cfg.aps.enterprise_ap_count = 150;
  cfg.photos.photo_count = 8000;
  return cfg;
}

}  // namespace cityhunter
