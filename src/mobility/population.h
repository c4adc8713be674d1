// Venue population: spawns people, moves them, removes them.
//
// Arrivals are a Poisson process at the slot's expected volume; each arrival
// is a lone person or a social group (shared PNL entries via
// world::PnlModel::make_group). Static visitors sit at a table for a
// lognormal dwell; flow visitors walk a straight lane through the venue past
// the attacker; hybrid venues mix both. Smartphones attach to the medium on
// arrival and detach on departure, so the attacker only ever sees devices
// that are really in range.
#pragma once

#include <memory>
#include <vector>

#include "client/smartphone.h"
#include "medium/medium.h"
#include "mobility/venue.h"
#include "support/rng.h"
#include "world/pnl.h"

namespace cityhunter::mobility {

using support::SimTime;

struct SlotParams {
  double expected_clients = 600.0;
  /// <= 0 means: use the venue's base group_fraction.
  double group_fraction = -1.0;
  /// Fraction of arrivals already associated to a legitimate AP (they do
  /// not probe until deauthenticated). Used by the §V-B deauth experiment.
  double pre_associated_fraction = 0.0;
  /// BSSID those clients are associated to (the venue's legitimate AP).
  std::optional<dot11::MacAddress> legit_ap;
  /// Fraction of devices randomising their MAC on every scan (a post-2017
  /// client hardening; see bench/ablation_mac_randomization).
  double mac_randomizing_fraction = 0.0;
};

/// Lifetime: arrivals, departures and walk ticks are plain queue events
/// that capture `this` (or a phone the population owns), with no way to
/// cancel them. The population must therefore outlive every later run of
/// its medium's event queue. sim::VenueRun, which builds the crowd of
/// every venue run, guarantees that by member order; a hand-wired caller
/// declares the queue first and does not run it after the population is
/// destroyed.
class VenuePopulation {
 public:
  VenuePopulation(medium::Medium& medium, world::PnlModel& pnl,
                  VenueConfig venue, client::SmartphoneConfig phone_cfg,
                  support::Rng rng);

  VenuePopulation(const VenuePopulation&) = delete;
  VenuePopulation& operator=(const VenuePopulation&) = delete;

  /// Schedule arrivals over [now, now + duration). Call once per slot; the
  /// caller then runs the event queue.
  void schedule_slot(SimTime duration, const SlotParams& params);

  std::size_t clients_spawned() const { return phones_.size(); }
  const std::vector<std::unique_ptr<client::Smartphone>>& phones() const {
    return phones_;
  }

 private:
  struct Walk {
    client::Smartphone* phone;
    Position from;
    Position to;
    double speed_mps;
    SimTime start;
  };

  void arrival(const SlotParams& params);
  void spawn_member(world::Person person, const SlotParams& params,
                    Position pos, SimTime dwell, double speed,
                    bool is_static);
  void walk_tick(std::size_t walk_index);
  Position random_static_spot();
  Position lane_entry(double lane_y) const;
  Position lane_exit(double lane_y) const;

  medium::Medium& medium_;
  world::PnlModel& pnl_;
  VenueConfig venue_;
  client::SmartphoneConfig phone_cfg_;
  support::Rng rng_;
  std::vector<std::unique_ptr<client::Smartphone>> phones_;
  std::vector<Walk> walks_;
};

}  // namespace cityhunter::mobility
