// Library tour: build a custom attacker strategy on the public API.
//
// Implements a "nearby-only" attacker (seeds just the 100 closest WiGLE
// SSIDs, no heat map, no freshness) in ~30 lines by subclassing
// core::Attacker, then pits it against the full City-Hunter. This is the
// extension point downstream research would use to prototype new selection
// policies.
//
//   $ ./build_your_own_attacker [seed]
#include <cstdio>
#include <cstdlib>

#include "core/attacker.h"
#include "core/wigle_seed.h"
#include "sim/scenario.h"
#include "stats/report.h"

using namespace cityhunter;

namespace {

/// A minimal custom strategy: answer broadcast probes with the untried
/// nearby-seeded SSIDs, nearest-rank first.
class NearbyOnlyAttacker : public core::Attacker {
 public:
  using core::Attacker::Attacker;

 protected:
  void handle_direct_probe_ssid(const std::string& ssid,
                                support::SimTime now) override {
    database().add(ssid, 1.0, core::SsidSource::kDirectProbe, now);
  }

  void select_ssids(const core::ClientRecord& client, int budget,
                    std::vector<core::SsidChoice>& out) override {
    // Choices name SSIDs by database id; re-sort only when the database
    // changed since the last probe.
    if (order_version_ != database().version()) {
      database().by_weight(order_);
      order_version_ = database().version();
    }
    const auto& records = database().records();
    for (const core::SsidId id : order_) {
      if (out.size() >= static_cast<std::size_t>(budget)) break;
      if (client.was_sent(id)) continue;
      out.push_back(core::SsidChoice{id, core::SelectionTag::kUntriedSweep,
                                     records[id].source});
    }
  }

 private:
  std::uint64_t order_version_ = ~std::uint64_t{0};
  std::vector<core::SsidId> order_;
};

}  // namespace

int main(int argc, char** argv) {
  sim::ScenarioConfig scenario;
  scenario.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  sim::World world(scenario);

  // Hand-wire the custom attacker into its own simulation: this is what
  // sim::VenueRun does for the built-in strategies. The queue is declared
  // first, so it outlives everything that posts events into it.
  medium::EventQueue events;
  medium::Medium medium(events, world.config().medium);

  core::Attacker::BaseConfig base;
  base.bssid = *dot11::MacAddress::parse("0a:7e:64:c1:7e:02");
  base.pos = {0, 0};
  NearbyOnlyAttacker attacker(medium, base);

  const auto venue = mobility::canteen_venue();
  const auto attack_pos = sim::venue_city_position(venue.name);
  core::WigleSeedConfig seed;
  seed.popular_count = 0;  // nearby-only: no city-wide set
  seed.nearby_count = 100;
  seed.ranking = core::PopularRanking::kApCount;
  core::seed_from_wigle(attacker.database(), world.wigle(), nullptr,
                        attack_pos, seed, events.now());
  attacker.start();
  std::printf("seeded %zu nearby SSIDs\n", attacker.database().size());

  // The venue crowd's own PNL model, as every sim::VenueRun builds it.
  world::PnlModel pnl = sim::venue_pnl_model(world, venue.name);

  support::Rng rng(scenario.seed);
  mobility::VenuePopulation population(medium, pnl, venue,
                                       client::SmartphoneConfig{},
                                       rng.fork("population"));
  mobility::SlotParams slot;
  slot.expected_clients = 640;
  population.schedule_slot(support::SimTime::minutes(30), slot);
  events.run_until(support::SimTime::minutes(30));

  auto mine = stats::analyze(attacker, "nearby-only (custom)");
  std::printf("%s\n", stats::summary_line(mine).c_str());

  // Reference: the full City-Hunter on the same venue (fresh crowd).
  sim::RunConfig run;
  run.kind = sim::AttackerKind::kCityHunter;
  run.venue = venue;
  run.slot = slot;
  run.duration = support::SimTime::minutes(30);
  const auto full = sim::run_campaign(world, run);
  std::printf("%s\n", stats::summary_line(full.result).c_str());

  std::printf("\n%s\n",
              stats::comparison_table({mine, full.result}).c_str());
  return 0;
}
