#include "core/wigle_seed.h"

#include <algorithm>
#include <stdexcept>

namespace cityhunter::core {

void check_seed_counts(const WigleSeedConfig& cfg) {
  if (cfg.nearby_count < 0 || cfg.popular_count < 0) {
    throw std::invalid_argument(
        "WigleSeedConfig: nearby_count and popular_count must be "
        "non-negative");
  }
}

void seed_from_wigle(SsidDatabase& db, const world::WigleDb& wigle,
                     const heatmap::HeatMap* heat, medium::Position attack_pos,
                     const WigleSeedConfig& cfg, support::SimTime now) {
  check_seed_counts(cfg);
  const auto popular_count = static_cast<std::size_t>(cfg.popular_count);
  std::vector<heatmap::ScoredSsid> popular;
  switch (cfg.ranking) {
    case PopularRanking::kHeat:
      if (heat == nullptr) {
        throw std::invalid_argument(
            "seed_from_wigle: heat ranking requires a HeatMap");
      }
      popular = heatmap::top_by_heat(wigle, *heat, popular_count);
      break;
    case PopularRanking::kApCount:
      popular = heatmap::top_by_ap_count(wigle, popular_count);
      break;
  }
  seed_ranked(db, popular,
              wigle.nearest_free_ssids(
                  attack_pos, static_cast<std::size_t>(cfg.nearby_count)),
              cfg, now);
}

void seed_ranked(SsidDatabase& db,
                 std::span<const heatmap::ScoredSsid> popular,
                 std::span<const std::string> nearby,
                 const WigleSeedConfig& cfg, support::SimTime now) {
  check_seed_counts(cfg);
  popular = popular.first(
      std::min(popular.size(), static_cast<std::size_t>(cfg.popular_count)));
  nearby = nearby.first(
      std::min(nearby.size(), static_cast<std::size_t>(cfg.nearby_count)));
  db.reserve(db.size() + popular.size() + nearby.size());
  // City-wide popular set first: its weights span [1, popular_count] and
  // should dominate ties with the nearby set.
  const auto pop_weights = heatmap::rank_weights(popular.size());
  for (std::size_t i = 0; i < popular.size(); ++i) {
    db.add(popular[i].ssid, pop_weights[i], SsidSource::kWiglePopular, now);
  }
  const auto near_weights = heatmap::rank_weights(nearby.size());
  for (std::size_t i = 0; i < nearby.size(); ++i) {
    db.add(nearby[i], near_weights[i], SsidSource::kWigleNearby, now);
  }
}

void seed_carrier_ssids(SsidDatabase& db,
                        const std::vector<std::string>& carrier_ssids,
                        double weight, support::SimTime now) {
  for (const auto& ssid : carrier_ssids) {
    db.add(ssid, weight, SsidSource::kCarrierSeed, now);
  }
}

}  // namespace cityhunter::core
