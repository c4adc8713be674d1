// WigleDb — the offline wireless-network mapping snapshot.
//
// Stands in for wigle.net in the paper: a crowd-sourced database of APs with
// SSIDs, positions and security flags. Built by sampling the ground-truth AP
// population with a coverage probability (wardrivers never see everything),
// it is the input of City-Hunter's database initialisation: the N free APs
// nearest the attack location (below), and the city-wide rankings of free
// SSIDs by heat value or AP count (heatmap/).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "support/rng.h"
#include "world/ap.h"

namespace cityhunter::world {

/// How completely wardrivers observed each AP category. Street-level
/// wardriving sees chain shops and residential windows well but misses many
/// indoor cafe and enterprise APs — which is why part of the mid-tail can
/// only ever enter the attacker's database through direct probes on site.
struct WigleCoverage {
  double residential = 0.80;
  double enterprise = 0.55;
  double chain = 0.95;
  double hot_area = 0.95;
  double venue_local = 0.20;

  double of(ApCategory cat) const;
};

class WigleDb {
 public:
  /// Snapshot `ground_truth` with uniform observation probability.
  static WigleDb snapshot(const std::vector<AccessPointInfo>& ground_truth,
                          support::Rng& rng, double coverage = 0.85);

  /// Snapshot with per-category coverage.
  static WigleDb snapshot(const std::vector<AccessPointInfo>& ground_truth,
                          support::Rng& rng, const WigleCoverage& coverage);

  /// Build from explicit records (tests).
  static WigleDb from_records(std::vector<AccessPointInfo> records);

  std::size_t size() const { return records_.size(); }
  const std::vector<AccessPointInfo>& records() const { return records_; }

  /// The `n` free (open) APs nearest to `pos`, deduplicated by SSID, nearest
  /// first. This is the "100 SSIDs near the attacker" source. Ties in
  /// distance go to the lexicographically smaller SSID. One pass over the
  /// records takes each SSID's nearest free AP, then the SSIDs are sorted
  /// by (that distance, SSID): the same list a sort of every free record
  /// by (distance, SSID) yields when each SSID keeps its first occurrence.
  std::vector<std::string> nearest_free_ssids(Position pos,
                                              std::size_t n) const;

 private:
  std::vector<AccessPointInfo> records_;
};

}  // namespace cityhunter::world
