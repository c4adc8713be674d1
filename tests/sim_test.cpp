#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

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

TEST(RunCampaign, NegativeSeedCountsAreRejected) {
  // Both counts were cast to size_t unchecked: -1 seeded every free WiGLE
  // SSID, and the carrier SSIDs at weight -1.
  World world(small_scenario());
  auto run = small_run(AttackerKind::kCityHunter);
  run.seed_carrier_ssids = true;
  for (const auto& [nearby, popular] :
       {std::pair{-1, 200}, std::pair{100, -1}, std::pair{-1, -1}}) {
    run.wigle_seed.nearby_count = nearby;
    run.wigle_seed.popular_count = popular;
    EXPECT_THROW((void)VenueRun(world, run), std::invalid_argument)
        << nearby << " nearby, " << popular << " popular";
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

// --- The offline phase: WiGLE rankings and venue seed lists ---

const World& default_world() {
  static const World world{ScenarioConfig{}};
  return world;
}

const char* const kVenueNames[] = {"subway-passage", "canteen",
                                   "shopping-center", "railway-station",
                                   "nowhere"};

/// A hand-built snapshot with the cases a ranking must order exactly:
/// different SSIDs at equal distance from the origin (3-4-5 triangles) and
/// in equally cold heat cells, repeated SSIDs whose nearest AP is not their
/// first record, and secure records nearer than any free one.
world::WigleDb tie_snapshot() {
  std::vector<world::AccessPointInfo> recs;
  const auto mk = [&](const char* ssid, double x, double y, bool open) {
    world::AccessPointInfo ap;
    ap.ssid = ssid;
    ap.pos = {x, y};
    ap.open = open;
    recs.push_back(ap);
  };
  mk("delta", 9000, 9000, true);
  mk("bravo", 3, 4, true);
  mk("alpha", 4, 3, true);
  mk("charlie", -5, 0, true);
  mk("secure", 0, 0, false);
  mk("alpha", 0, 1, false);  // secure record of a free SSID
  mk("delta", 0, -5, true);  // repeated: nearer than its first record
  mk("bravo", 5000, 5000, true);
  mk("bravo", 5010, 4990, true);
  mk("echo", 9000, 9000, true);
  mk("foxtrot", 9500, 9500, true);
  return world::WigleDb::from_records(std::move(recs));
}

std::size_t distinct_free_ssids(const world::WigleDb& wigle) {
  std::set<std::string> ssids;
  for (const auto& ap : wigle.records()) {
    if (ap.open) ssids.insert(ap.ssid);
  }
  return ssids.size();
}

/// The heat ranking as it was first written: every free record is scanned
/// once per distinct free SSID, and each SSID's heat is added in record
/// order.
std::vector<heatmap::ScoredSsid> heat_oracle(const world::WigleDb& wigle,
                                             const heatmap::HeatMap& heat,
                                             std::size_t k) {
  std::set<std::string> ssids;
  for (const auto& ap : wigle.records()) {
    if (ap.open) ssids.insert(ap.ssid);
  }
  std::vector<heatmap::ScoredSsid> scored;
  for (const auto& ssid : ssids) {
    double sum = 0.0;
    for (const auto& ap : wigle.records()) {
      if (ap.open && ap.ssid == ssid) sum += heat.at(ap.pos);
    }
    scored.push_back({ssid, sum});
  }
  std::sort(scored.begin(), scored.end(),
            [](const heatmap::ScoredSsid& a, const heatmap::ScoredSsid& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.ssid < b.ssid;
            });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

/// The AP-count ranking as it was first written: a string-keyed map counts
/// every free record.
std::vector<heatmap::ScoredSsid> count_oracle(const world::WigleDb& wigle,
                                              std::size_t k) {
  std::map<std::string, int> counts;
  for (const auto& ap : wigle.records()) {
    if (ap.open) ++counts[ap.ssid];
  }
  std::vector<heatmap::ScoredSsid> scored;
  for (const auto& [ssid, count] : counts) {
    scored.push_back({ssid, static_cast<double>(count)});
  }
  std::sort(scored.begin(), scored.end(),
            [](const heatmap::ScoredSsid& a, const heatmap::ScoredSsid& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.ssid < b.ssid;
            });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

/// The nearest-SSID query as it was first written: sort every free record
/// by (distance, SSID) and keep each SSID's first occurrence.
std::vector<std::string> nearest_oracle(const world::WigleDb& wigle,
                                        medium::Position pos,
                                        std::size_t n) {
  std::vector<const world::AccessPointInfo*> free;
  for (const auto& ap : wigle.records()) {
    if (ap.open) free.push_back(&ap);
  }
  std::sort(free.begin(), free.end(),
            [&](const world::AccessPointInfo* a,
                const world::AccessPointInfo* b) {
              const double da = medium::distance(a->pos, pos);
              const double db = medium::distance(b->pos, pos);
              if (da != db) return da < db;
              return a->ssid < b->ssid;
            });
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto* ap : free) {
    if (out.size() >= n) break;
    if (seen.insert(ap->ssid).second) out.push_back(ap->ssid);
  }
  return out;
}

void expect_same_scores(const std::vector<heatmap::ScoredSsid>& got,
                        const std::vector<heatmap::ScoredSsid>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ssid, want[i].ssid) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;  // bit-exact
  }
}

std::vector<std::size_t> rank_sizes(std::size_t all) {
  return {0, 1, 15, 200, all, all + 10};
}

TEST(OfflinePhase, TopByHeatMatchesPerSsidScan) {
  const World& world = default_world();
  const auto tie = tie_snapshot();
  for (const world::WigleDb* wigle : {&world.wigle(), &tie}) {
    for (const std::size_t k : rank_sizes(distinct_free_ssids(*wigle))) {
      SCOPED_TRACE(testing::Message() << wigle->size() << " records, k=" << k);
      expect_same_scores(heatmap::top_by_heat(*wigle, world.heat(), k),
                         heat_oracle(*wigle, world.heat(), k));
    }
  }
  // The tie snapshot's cold SSIDs share score 0 and rank by name.
  const auto tied = heatmap::top_by_heat(tie, world.heat(), 100);
  ASSERT_EQ(tied.size(), 6u);
  EXPECT_EQ(tied[0].ssid, "bravo");  // its two records sit in the centre
}

TEST(OfflinePhase, TopByApCountMatchesMapCount) {
  const World& world = default_world();
  const auto tie = tie_snapshot();
  for (const world::WigleDb* wigle : {&world.wigle(), &tie}) {
    for (const std::size_t k : rank_sizes(distinct_free_ssids(*wigle))) {
      SCOPED_TRACE(testing::Message() << wigle->size() << " records, k=" << k);
      expect_same_scores(heatmap::top_by_ap_count(*wigle, k),
                         count_oracle(*wigle, k));
    }
  }
}

TEST(OfflinePhase, NearestFreeSsidsMatchesSortOracle) {
  const World& world = default_world();
  std::vector<medium::Position> positions;
  for (const char* name : kVenueNames) {
    positions.push_back(venue_city_position(name));
  }
  support::Rng rng(2017);
  for (int i = 0; i < 60; ++i) {
    positions.push_back({rng.uniform(-500.0, 10500.0),
                         rng.uniform(-500.0, 10500.0)});
  }
  const std::size_t all = distinct_free_ssids(world.wigle());
  for (const auto pos : positions) {
    for (const std::size_t n : rank_sizes(all)) {
      SCOPED_TRACE(testing::Message()
                   << "(" << pos.x << ", " << pos.y << "), n=" << n);
      EXPECT_EQ(world.wigle().nearest_free_ssids(pos, n),
                nearest_oracle(world.wigle(), pos, n));
    }
  }

  const auto tie = tie_snapshot();
  for (const medium::Position pos :
       {medium::Position{0, 0}, medium::Position{5005, 4995},
        medium::Position{9000, 9000}}) {
    for (const std::size_t n : rank_sizes(distinct_free_ssids(tie))) {
      SCOPED_TRACE(testing::Message()
                   << "tie snapshot (" << pos.x << ", " << pos.y
                   << "), n=" << n);
      EXPECT_EQ(tie.nearest_free_ssids(pos, n), nearest_oracle(tie, pos, n));
    }
  }
  // Equal distances rank by name; a repeated SSID ranks by its nearest AP.
  EXPECT_EQ(tie.nearest_free_ssids({0, 0}, 4),
            (std::vector<std::string>{"alpha", "bravo", "charlie", "delta"}));
}

TEST(OfflinePhase, WorldListsMatchOnDemandFunctions) {
  const World& world = default_world();
  const auto all = std::numeric_limits<std::size_t>::max();
  expect_same_scores(world.ranked_free_ssids(core::PopularRanking::kHeat),
                     heatmap::top_by_heat(world.wigle(), world.heat(), all));
  expect_same_scores(world.ranked_free_ssids(core::PopularRanking::kApCount),
                     heatmap::top_by_ap_count(world.wigle(), all));
  for (const char* name : kVenueNames) {
    SCOPED_TRACE(name);
    const auto pos = venue_city_position(name);
    const SiteLists& site = world.site_lists(name);
    EXPECT_EQ(site.nearest_free, world.wigle().nearest_free_ssids(pos, all));
    EXPECT_EQ(site.locale, world.local_public_ssids(pos, 500.0));

    // A run's seeded database equals seed_from_wigle's on-demand seed.
    for (const auto kind : {AttackerKind::kPrelim, AttackerKind::kCityHunter}) {
      RunConfig cfg;
      cfg.kind = kind;
      cfg.venue.name = name;
      cfg.duration = SimTime::zero();
      VenueRun run(world, cfg);
      core::SsidDatabase want;
      auto seed_cfg = cfg.wigle_seed;
      if (kind == AttackerKind::kPrelim) {
        seed_cfg.ranking = core::PopularRanking::kApCount;
      }
      core::seed_from_wigle(want, world.wigle(), &world.heat(), pos, seed_cfg,
                            SimTime::zero());
      const auto& got = run.attacker().database().records();
      ASSERT_EQ(got.size(), want.records().size()) << to_string(kind);
      for (std::size_t i = 0; i < got.size(); ++i) {
        const auto& g = got[i];
        const auto& w = want.records()[i];
        EXPECT_EQ(g.ssid, w.ssid) << i;
        EXPECT_EQ(g.weight, w.weight) << i;
        EXPECT_EQ(g.source, w.source) << i;
        EXPECT_EQ(g.added, w.added) << i;
        EXPECT_EQ(g.insertion_order, w.insertion_order) << i;
      }
    }
  }
}

/// FNV-1a over everything the default World's construction draws.
std::uint64_t world_digest(const World& world) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix_byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  const auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const auto mix_double = [&](double d) {
    mix_u64(std::bit_cast<std::uint64_t>(d));
  };
  const auto mix_ap = [&](const world::AccessPointInfo& ap) {
    mix_u64(ap.ssid.size());
    for (const char c : ap.ssid) mix_byte(static_cast<std::uint8_t>(c));
    for (const auto o : ap.bssid.octets()) mix_byte(o);
    mix_double(ap.pos.x);
    mix_double(ap.pos.y);
    mix_byte(ap.open ? 1 : 0);
    mix_byte(ap.channel);
    mix_byte(static_cast<std::uint8_t>(ap.category));
  };
  mix_u64(world.aps().size());
  for (const auto& ap : world.aps()) mix_ap(ap);
  const auto& heat = world.heat();
  mix_u64(heat.cols());
  mix_u64(heat.rows());
  for (std::size_t r = 0; r < heat.rows(); ++r) {
    for (std::size_t c = 0; c < heat.cols(); ++c) mix_double(heat.cell(c, r));
  }
  mix_u64(world.wigle().size());
  for (const auto& ap : world.wigle().records()) mix_ap(ap);
  return h;
}

TEST(OfflinePhase, DefaultWorldDigestIsPinned) {
  // Recorded before the city's district tables were built once: the same
  // draws must build the same World.
  EXPECT_EQ(world_digest(default_world()), 0xc56edf0dadf21042ULL);
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
