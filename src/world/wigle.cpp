#include "world/wigle.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace cityhunter::world {

double WigleCoverage::of(ApCategory cat) const {
  switch (cat) {
    case ApCategory::kResidential: return residential;
    case ApCategory::kEnterprise: return enterprise;
    case ApCategory::kChain: return chain;
    case ApCategory::kHotArea: return hot_area;
    case ApCategory::kVenueLocal: return venue_local;
    case ApCategory::kCarrier: return 0.0;  // not obtainable (§V-B)
  }
  return 0.0;
}

WigleDb WigleDb::snapshot(const std::vector<AccessPointInfo>& ground_truth,
                          support::Rng& rng, double coverage) {
  WigleDb db;
  db.records_.reserve(ground_truth.size());
  for (const auto& ap : ground_truth) {
    // Carrier hotspot SSIDs are not obtainable from WiGLE (paper §V-B);
    // the carrier-seed extension supplies them out of band.
    if (ap.category == ApCategory::kCarrier) continue;
    if (rng.chance(coverage)) db.records_.push_back(ap);
  }
  return db;
}

WigleDb WigleDb::snapshot(const std::vector<AccessPointInfo>& ground_truth,
                          support::Rng& rng, const WigleCoverage& coverage) {
  WigleDb db;
  db.records_.reserve(ground_truth.size());
  for (const auto& ap : ground_truth) {
    if (rng.chance(coverage.of(ap.category))) db.records_.push_back(ap);
  }
  return db;
}

WigleDb WigleDb::from_records(std::vector<AccessPointInfo> records) {
  WigleDb db;
  db.records_ = std::move(records);
  return db;
}

std::vector<std::string> WigleDb::nearest_free_ssids(Position pos,
                                                     std::size_t n) const {
  struct Nearest {
    double distance;
    std::string_view ssid;
  };
  std::vector<Nearest> nearest;
  std::unordered_map<std::string_view, std::size_t> slot;
  for (const auto& ap : records_) {
    if (!ap.open) continue;
    const double d = medium::distance(ap.pos, pos);
    const auto [it, fresh] = slot.try_emplace(ap.ssid, nearest.size());
    if (fresh) {
      nearest.push_back({d, ap.ssid});
    } else if (d < nearest[it->second].distance) {
      nearest[it->second].distance = d;
    }
  }
  std::sort(nearest.begin(), nearest.end(),
            [](const Nearest& a, const Nearest& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.ssid < b.ssid;  // deterministic tie-break
            });
  if (nearest.size() > n) nearest.resize(n);
  std::vector<std::string> out;
  out.reserve(nearest.size());
  for (const auto& entry : nearest) out.emplace_back(entry.ssid);
  return out;
}

}  // namespace cityhunter::world
