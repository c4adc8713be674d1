// Preliminary City-Hunter (paper §III).
//
// MANA plus the two fixes of the preliminary design:
//   1. per-client untried tracking — respond with up to 40 database SSIDs
//      *not yet sent to this client*, so static victims see the whole
//      database over successive scans instead of the same first 40;
//   2. WiGLE seeding — 100 nearby + 200 popular free SSIDs.
// Selection is deliberately unordered (database insertion order): ranking by
// probability of success is the advanced design's contribution, and its
// absence is why this version collapses in the subway passage (Table III).
#pragma once

#include <algorithm>
#include <functional>
#include <numeric>

#include "core/attacker.h"

namespace cityhunter::core {

class CityHunterPrelim : public Attacker {
 public:
  struct Config {
    Attacker::BaseConfig base;
    double learned_weight = 30.0;
  };

  CityHunterPrelim(medium::Medium& medium, Config cfg)
      : Attacker(medium, cfg.base), cfg_(cfg) {}

 protected:
  void handle_direct_probe_ssid(const std::string& ssid,
                                SimTime now) override {
    db_.add(ssid, cfg_.learned_weight, SsidSource::kDirectProbe, now);
  }

  void on_hit(const ClientRecord&, const std::string& ssid,
              SimTime now) override {
    db_.record_hit(ssid, 0.0, now);
  }

  void select_ssids(const ClientRecord& client, int budget,
                    std::vector<SsidChoice>& out) override {
    refresh_order();
    const auto& records = db_.records();
    for (const SsidId id : ordered_) {
      if (out.size() >= static_cast<std::size_t>(budget)) break;
      if (client.was_sent(id)) continue;
      out.push_back(
          SsidChoice{id, SelectionTag::kUntriedSweep, records[id].source});
    }
  }

 private:
  /// The preliminary design has no notion of ranking: its database is an
  /// unordered set and responses come out in whatever order the container
  /// yields (§III). We model that with a deterministic hash order, which is
  /// as good as random with respect to SSID popularity. Re-sorted in place
  /// when the database changes.
  void refresh_order() {
    if (order_version_ == db_.version()) return;
    const auto& records = db_.records();
    ordered_.resize(records.size());
    std::iota(ordered_.begin(), ordered_.end(), SsidId{0});
    std::sort(ordered_.begin(), ordered_.end(), [&](SsidId a, SsidId b) {
      const auto ha = std::hash<std::string>{}(records[a].ssid);
      const auto hb = std::hash<std::string>{}(records[b].ssid);
      if (ha != hb) return ha < hb;
      return records[a].insertion_order < records[b].insertion_order;
    });
    order_version_ = db_.version();
  }

  Config cfg_;
  std::uint64_t order_version_ = ~std::uint64_t{0};
  std::vector<SsidId> ordered_;
};

}  // namespace cityhunter::core
