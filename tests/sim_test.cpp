#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "sim/scenario.h"

namespace cityhunter::sim {
namespace {

using support::SimTime;

ScenarioConfig small_scenario(std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  // Shrink the world so these tests stay fast.
  cfg.aps.residential_ap_count = 800;
  cfg.aps.small_venue_count = 400;
  cfg.aps.enterprise_ap_count = 150;
  cfg.photos.photo_count = 8000;
  return cfg;
}

RunConfig small_run(AttackerKind kind) {
  RunConfig run;
  run.kind = kind;
  run.venue = mobility::canteen_venue();
  run.slot.expected_clients = 120;
  run.duration = SimTime::minutes(10);
  return run;
}

TEST(World, BuildsAllPieces) {
  World world(small_scenario());
  EXPECT_GT(world.aps().size(), 1000u);
  EXPECT_GT(world.wigle().size(), 500u);
  EXPECT_LT(world.wigle().size(), world.aps().size());
  EXPECT_GT(world.heat().max_cell(), 0.0);
  EXPECT_FALSE(world.pnl_model().ranked_public_ssids().empty());
}

TEST(World, VenueApsExistForEveryVenue) {
  World world(small_scenario());
  std::set<std::string> ssids;
  for (const auto& ap : world.aps()) ssids.insert(ap.ssid);
  EXPECT_TRUE(ssids.count("MTR Free Wi-Fi"));
  EXPECT_TRUE(ssids.count("Canteen-Free-WiFi"));
  EXPECT_TRUE(ssids.count("HarbourMall-Guest"));
  EXPECT_TRUE(ssids.count("RailwayStation-Free"));
}

TEST(World, VenuePositionsAreDistinct) {
  std::set<std::pair<double, double>> seen;
  for (const char* name : {"subway-passage", "canteen", "shopping-center",
                           "railway-station"}) {
    const auto p = venue_city_position(name);
    EXPECT_TRUE(seen.insert({p.x, p.y}).second) << name;
  }
  // Unknown venue falls back to the city centre.
  const auto fallback = venue_city_position("nowhere");
  EXPECT_DOUBLE_EQ(fallback.x, 5000);
}

TEST(World, LocalPublicSsidsAreNearby) {
  World world(small_scenario());
  const auto pos = venue_city_position("canteen");
  const auto local = world.local_public_ssids(pos, 500.0);
  EXPECT_FALSE(local.empty());
  // Every returned SSID has at least one open AP within the radius.
  for (const auto& ssid : local) {
    bool found = false;
    for (const auto& ap : world.aps()) {
      if (ap.ssid == ssid && ap.open &&
          medium::distance(ap.pos, pos) <= 500.0) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << ssid;
  }
}

TEST(RunCampaign, DeterministicForSameSeeds) {
  World world(small_scenario());
  auto run = small_run(AttackerKind::kCityHunter);
  const auto a = run_campaign(world, run);
  // run_campaign is pure in the world (the PNL model is copied per run), so
  // rerunning against the *same* World is bit-identical.
  const auto b = run_campaign(world, run);
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.window_rates, b.window_rates);
  EXPECT_EQ(a.db_final_size, b.db_final_size);
}

TEST(RunCampaign, DifferentRunSeedsDiffer) {
  World world(small_scenario());
  auto run = small_run(AttackerKind::kCityHunter);
  run.run_seed = 1;
  const auto a = run_campaign(world, run);
  run.run_seed = 2;
  const auto b = run_campaign(world, run);
  EXPECT_NE(a.result.total_clients, b.result.total_clients);
}

TEST(RunCampaign, KarmaGetsZeroBroadcastHits) {
  World world(small_scenario());
  const auto out = run_campaign(world, small_run(AttackerKind::kKarma));
  EXPECT_EQ(out.result.broadcast_connected, 0u);
  EXPECT_EQ(out.db_final_size, 0u);  // KARMA keeps no database
}

TEST(RunCampaign, ManaDatabaseComesOnlyFromDirectProbes) {
  World world(small_scenario());
  const auto out = run_campaign(world, small_run(AttackerKind::kMana));
  EXPECT_GT(out.db_final_size, 0u);
  EXPECT_EQ(out.db_from_direct, out.db_final_size);
}

TEST(RunCampaign, CityHunterDatabaseIsSeededPlusLearned) {
  World world(small_scenario());
  const auto out = run_campaign(world, small_run(AttackerKind::kCityHunter));
  EXPECT_GT(out.db_final_size, 150u);  // WiGLE seed present
  EXPECT_GT(out.db_from_direct, 0u);   // plus on-site learning
  EXPECT_LT(out.db_from_direct, out.db_final_size);
  EXPECT_GT(out.final_pb_size, 0);
  EXPECT_EQ(out.final_pb_size + out.final_fb_size, 40);
}

TEST(RunCampaign, SamplingProducesMonotonicSeries) {
  World world(small_scenario());
  auto run = small_run(AttackerKind::kMana);
  run.sample_every = SimTime::minutes(1);
  const auto out = run_campaign(world, run);
  ASSERT_EQ(out.series.size(), 10u);
  for (std::size_t i = 1; i < out.series.size(); ++i) {
    EXPECT_GE(out.series[i].db_size, out.series[i - 1].db_size);
    EXPECT_GE(out.series[i].broadcast_connected,
              out.series[i - 1].broadcast_connected);
    EXPECT_GT(out.series[i].time, out.series[i - 1].time);
  }
}

TEST(RunCampaign, WindowRatesCoverTheDuration) {
  World world(small_scenario());
  auto run = small_run(AttackerKind::kCityHunter);
  const auto out = run_campaign(world, run);
  EXPECT_EQ(out.window_rates.size(), 5u);  // 10 min / 2 min
  std::size_t total = 0;
  for (const auto& w : out.window_rates) total += w.broadcast_clients;
  EXPECT_EQ(total, out.result.broadcast_clients);
}

TEST(RunCampaign, CarrierSeedProducesCarrierHits) {
  World world(small_scenario());
  auto run = small_run(AttackerKind::kCityHunter);
  run.slot.expected_clients = 400;
  run.duration = SimTime::minutes(20);
  run.seed_carrier_ssids = true;
  const auto out = run_campaign(world, run);
  EXPECT_GT(out.result.hits_from_carrier_seed, 0u);
}

TEST(RunCampaign, DeauthScenarioReachesParkedClients) {
  World world(small_scenario());
  auto run = small_run(AttackerKind::kCityHunter);
  run.slot.expected_clients = 250;
  run.duration = SimTime::minutes(20);
  DeauthScenario d;
  d.pre_associated_fraction = 1.0;  // everyone starts parked
  d.enable_deauth = false;
  run.deauth = d;
  const auto baseline = run_campaign(world, run);
  EXPECT_EQ(baseline.result.total_clients, 0u);  // nobody ever probes

  d.enable_deauth = true;
  run.deauth = d;
  const auto attacked = run_campaign(world, run);
  EXPECT_GT(attacked.deauths_sent, 0u);
  EXPECT_GT(attacked.result.total_clients, 50u);
}

TEST(RunCampaign, NegativeDurationIsRejected) {
  // An empty crowd, as a slot's client count scaled by a negative duration
  // draws no arrivals: without the check the run simulated nothing and the
  // window-rate analysis threw std::length_error on a negative window count.
  World world(small_scenario());
  auto run = small_run(AttackerKind::kCityHunter);
  run.slot.expected_clients = 0;
  run.duration = SimTime::minutes(-5);
  EXPECT_THROW((void)run_campaign(world, run), std::invalid_argument);
}

TEST(RunCampaign, NonPositiveSampleIntervalIsRejected) {
  // A zero interval never advanced the series loop, which posted events
  // until memory ran out; a negative one scheduled into the past.
  World world(small_scenario());
  auto run = small_run(AttackerKind::kMana);
  for (const SimTime every : {SimTime::zero(), SimTime::seconds(-30)}) {
    run.sample_every = every;
    EXPECT_THROW((void)run_campaign(world, run), std::invalid_argument)
        << every.sec() << " s";
  }
}

TEST(RunCampaign, WarmStartCarriesLearnedSsids) {
  World world(small_scenario());
  auto run = small_run(AttackerKind::kCityHunter);
  const auto first = run_campaign(world, run);
  ASSERT_GT(first.db_from_direct, 0u);

  auto warm = small_run(AttackerKind::kCityHunter);
  warm.run_seed = 2;
  warm.initial_database = first.database;
  const auto second = run_campaign(world, warm);
  // The warm DB contains everything the first slot learned plus new WiGLE
  // seeding (idempotent) plus the second slot's own learning.
  EXPECT_GE(second.db_final_size, first.db_final_size);
  EXPECT_GE(second.db_from_direct, first.db_from_direct);
}

TEST(AttackerKindNames, Distinct) {
  std::set<std::string> names;
  for (const auto k : {AttackerKind::kKarma, AttackerKind::kMana,
                       AttackerKind::kPrelim, AttackerKind::kCityHunter}) {
    names.insert(to_string(k));
  }
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace cityhunter::sim
