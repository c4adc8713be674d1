// Database initialisation from WiGLE (paper §III-B and §IV-B).
//
// Two seed sets, both free-AP only:
//   * the `nearby_count` SSIDs nearest the attack position ("many phones
//     passing by have connected to the nearby APs");
//   * the `popular_count` city-wide SSIDs ranked either by AP count (the
//     preliminary design) or by photo-heat value (the advanced design that
//     promotes '#HKAirport Free WiFi' into the top ranks, Table IV).
// Each set gets Barron-Barrett rank weights: best = set size ... worst = 1.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/ssid_db.h"
#include "heatmap/heatmap.h"
#include "medium/geometry.h"
#include "world/wigle.h"

namespace cityhunter::core {

enum class PopularRanking { kHeat, kApCount };

struct WigleSeedConfig {
  int nearby_count = 100;
  int popular_count = 200;
  PopularRanking ranking = PopularRanking::kHeat;
};

/// Throws std::invalid_argument when either count is negative.
void check_seed_counts(const WigleSeedConfig& cfg);

/// Populate `db` from the WiGLE snapshot, ranking it on demand. `heat` may
/// be null when `ranking == kApCount`. Throws std::invalid_argument on a
/// negative count, or on heat ranking without a HeatMap.
void seed_from_wigle(SsidDatabase& db, const world::WigleDb& wigle,
                     const heatmap::HeatMap* heat, medium::Position attack_pos,
                     const WigleSeedConfig& cfg, support::SimTime now);

/// The adding loop behind every WiGLE seed: the first `cfg.popular_count`
/// entries of `popular` (ranked under `cfg.ranking`), then the first
/// `cfg.nearby_count` of `nearby` (nearest first), each set with rank
/// weights. The lists may be longer than the counts, as sim::World's
/// precomputed rankings are. Throws std::invalid_argument on a negative
/// count.
void seed_ranked(SsidDatabase& db,
                 std::span<const heatmap::ScoredSsid> popular,
                 std::span<const std::string> nearby,
                 const WigleSeedConfig& cfg, support::SimTime now);

/// Sec V-B extension: add operator hotspot SSIDs with top-rank weight.
void seed_carrier_ssids(SsidDatabase& db,
                        const std::vector<std::string>& carrier_ssids,
                        double weight, support::SimTime now);

}  // namespace cityhunter::core
