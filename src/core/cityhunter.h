// The advanced City-Hunter attacker (paper §IV, Fig 3).
//
// Implements the four-step loop: (1) database initialisation from WiGLE
// with heat-map rank weights (wigle_seed.h, done by the scenario driver
// before start()), (2) on-line database updating (weight bumps on hits and
// on direct-probe re-observations, freshness timestamps), (3) SSID selection
// through the adaptive Popularity/Freshness buffers with ghost lists
// (buffers.h), and (4) transmission of the chosen probe responses. Per-client
// untried tracking makes successive scans of a static victim sweep ever
// deeper into the database.
#pragma once

#include <cstdint>
#include <optional>

#include "core/attacker.h"
#include "core/buffers.h"
#include "core/ssid_db.h"
#include "support/rng.h"

namespace cityhunter::core {

class CityHunter : public Attacker {
 public:
  struct Config {
    Attacker::BaseConfig base;
    BufferSelectorConfig buffers;
    /// Weight for SSIDs first learned from a direct probe on site (WiGLE
    /// rank weights span 1..200, so this slots learned SSIDs mid-table).
    double direct_initial_weight = 60.0;
    /// Weight bump when a known SSID shows up in another direct probe.
    double direct_seen_bonus = 15.0;
    /// Weight bump on a successful hit. Deliberately small: popularity is
    /// the *long-term* signal. The short-term burst after a hit is the
    /// freshness buffer's job — a large bonus here would vault fresh SSIDs
    /// into the popularity top ranks and make FB redundant.
    double hit_weight_bonus = 8.0;
    /// Ablation: disable the per-client untried filter.
    bool untried_tracking = true;
  };

  CityHunter(medium::Medium& medium, Config cfg, support::Rng rng);

  BufferSelector& selector() { return selector_; }
  const BufferSelector& selector() const { return selector_; }
  const Config& config() const { return cfg_; }

 protected:
  void handle_direct_probe_ssid(const std::string& ssid,
                                SimTime now) override;
  void on_hit(const ClientRecord& client, const std::string& ssid,
              SimTime now) override;
  void select_ssids(const ClientRecord& client, int budget,
                    std::vector<SsidChoice>& out) override;

 private:
  /// Bring the id views up to date when the database changed.
  void refresh_views();

  Config cfg_;
  BufferSelector selector_;

  // Sorted-view cache keyed on the database's mutation counter.
  std::uint64_t views_version_ = ~std::uint64_t{0};
  std::vector<SsidId> by_weight_;
  std::vector<SsidId> by_freshness_;
};

}  // namespace cityhunter::core
