#include "mobility/population.h"

#include <algorithm>
#include <cmath>

namespace cityhunter::mobility {

VenuePopulation::VenuePopulation(medium::Medium& medium, world::PnlModel& pnl,
                                 VenueConfig venue,
                                 client::SmartphoneConfig phone_cfg,
                                 support::Rng rng)
    : medium_(medium),
      pnl_(pnl),
      venue_(std::move(venue)),
      phone_cfg_(phone_cfg),
      rng_(std::move(rng)) {}

Position VenuePopulation::random_static_spot() {
  // The attacker sits at the local origin; seats spread around it.
  return {rng_.uniform(-venue_.extent_m / 2, venue_.extent_m / 2),
          rng_.uniform(-venue_.width_m / 2, venue_.width_m / 2)};
}

Position VenuePopulation::lane_entry(double lane_y) const {
  return {-venue_.extent_m / 2, lane_y};
}

Position VenuePopulation::lane_exit(double lane_y) const {
  return {venue_.extent_m / 2, lane_y};
}

void VenuePopulation::schedule_slot(SimTime duration,
                                    const SlotParams& params) {
  const double gf = params.group_fraction > 0 ? params.group_fraction
                                              : venue_.group_fraction;
  double mean_group_size = 0.0;
  {
    const auto& w = venue_.group_size_weights;
    const double total = w[0] + w[1] + w[2];
    mean_group_size = (2 * w[0] + 3 * w[1] + 4 * w[2]) / total;
  }
  const double clients_per_arrival = (1.0 - gf) + gf * mean_group_size;
  const double expected_arrivals =
      params.expected_clients / clients_per_arrival;
  const int arrivals = rng_.poisson(expected_arrivals);

  SlotParams p = params;
  p.group_fraction = gf;
  for (int i = 0; i < arrivals; ++i) {
    const SimTime at = SimTime::microseconds(static_cast<std::int64_t>(
        rng_.uniform(0.0, static_cast<double>(duration.us()))));
    medium_.events().post_in(at, [this, p] { arrival(p); });
  }
}

void VenuePopulation::arrival(const SlotParams& params) {
  const bool is_group = rng_.chance(params.group_fraction);
  int size = 1;
  if (is_group) {
    const auto& w = venue_.group_size_weights;
    size = 2 + static_cast<int>(
                   rng_.weighted_index({w[0], w[1], w[2]}));
  }
  std::vector<world::Person> people =
      is_group ? pnl_.make_group(rng_, size, venue_.venue_ssids,
                                 venue_.venue_regular_prob)
               : std::vector<world::Person>{pnl_.make_person(
                     rng_, venue_.venue_ssids, venue_.venue_regular_prob)};

  // The whole party behaves alike: same table or same walking lane/speed.
  bool is_static = false;
  switch (venue_.pattern) {
    case MobilityPattern::kStatic: is_static = true; break;
    case MobilityPattern::kFlow: is_static = false; break;
    case MobilityPattern::kHybrid:
      is_static = rng_.chance(venue_.hybrid_static_fraction);
      break;
  }

  Position anchor = random_static_spot();
  double lane_y = rng_.uniform(-venue_.width_m / 2, venue_.width_m / 2);
  const double sigma = venue_.dwell_sigma;
  const double mu = std::log(std::max(1.0, venue_.mean_dwell_min)) -
                    sigma * sigma / 2.0;
  const SimTime dwell = SimTime::minutes(rng_.lognormal(mu, sigma));
  const double speed = std::max(
      0.4, rng_.normal(venue_.mean_speed_mps, venue_.speed_sd_mps));

  for (auto& person : people) {
    Position pos;
    if (is_static) {
      pos = {anchor.x + rng_.uniform(-1.5, 1.5),
             anchor.y + rng_.uniform(-1.5, 1.5)};
    } else {
      pos = lane_entry(lane_y + rng_.uniform(-1.0, 1.0));
    }
    spawn_member(std::move(person), params, pos, dwell, speed, is_static);
  }
}

void VenuePopulation::spawn_member(world::Person person,
                                   const SlotParams& params, Position pos,
                                   SimTime dwell, double speed,
                                   bool is_static) {
  std::optional<dot11::MacAddress> associated;
  if (params.legit_ap && rng_.chance(params.pre_associated_fraction)) {
    associated = params.legit_ap;
  }
  auto member_cfg = phone_cfg_;
  if (rng_.chance(params.mac_randomizing_fraction)) {
    member_cfg.randomize_mac_per_scan = true;
  }
  auto phone = std::make_unique<client::Smartphone>(
      std::move(person), medium_, pos, member_cfg,
      rng_.fork("phone"), associated);
  client::Smartphone* raw = phone.get();
  raw->start();
  phones_.push_back(std::move(phone));

  if (is_static) {
    medium_.events().post_in(dwell, [raw] { raw->stop(); });
  } else {
    Walk w;
    w.phone = raw;
    w.from = pos;
    w.to = lane_exit(pos.y);
    w.speed_mps = speed;
    w.start = medium_.events().now();
    const std::size_t index = walks_.size();
    walks_.push_back(w);
    medium_.events().post_in(SimTime::seconds(1.0),
                             [this, index] { walk_tick(index); });
  }
}

void VenuePopulation::walk_tick(std::size_t walk_index) {
  Walk& w = walks_[walk_index];
  if (w.phone == nullptr) return;
  const double elapsed_s = (medium_.events().now() - w.start).sec();
  const double total = medium::distance(w.from, w.to);
  const double walked = w.speed_mps * elapsed_s;
  if (walked >= total) {
    w.phone->stop();
    w.phone = nullptr;
    return;
  }
  w.phone->set_position(medium::lerp(w.from, w.to, walked / total));
  medium_.events().post_in(SimTime::seconds(1.0),
                           [this, walk_index] { walk_tick(walk_index); });
}

}  // namespace cityhunter::mobility
