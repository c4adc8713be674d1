#include <gtest/gtest.h>

#include <set>

#include "heatmap/heatmap.h"
#include "support/rng.h"
#include "world/ap_generator.h"
#include "world/city.h"
#include "world/photos.h"
#include "world/pnl.h"
#include "world/wigle.h"

namespace cityhunter::world {
namespace {

using support::Rng;

CityModel default_city() { return CityModel(); }

std::vector<AccessPointInfo> default_aps(Rng& rng) {
  const auto city = default_city();
  return generate_aps(city, rng, default_ap_population());
}

// --- CityModel ---

TEST(CityModel, DensityPeaksAtDistrictCentres) {
  const auto city = default_city();
  for (const auto& d : city.districts()) {
    const double at_centre = city.density(d.center);
    const double far_away =
        city.density({d.center.x + 4 * d.sigma_m, d.center.y});
    EXPECT_GT(at_centre, far_away) << d.name;
  }
}

TEST(CityModel, SamplesStayInBounds) {
  const auto city = default_city();
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto p = city.sample_location(rng);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, city.width());
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, city.height());
  }
}

TEST(CityModel, KindFilteredSamplingLandsNearMatchingDistricts) {
  const auto city = default_city();
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const auto p = city.sample_location_of_kind(rng, DistrictKind::kAirport);
    // The single airport district is at (8800, 1400) with sigma 500.
    EXPECT_LT(medium::distance(p, {8800, 1400}), 2500.0);
  }
}

TEST(CityModel, DefaultHasAllKinds) {
  const auto city = default_city();
  std::set<DistrictKind> kinds;
  for (const auto& d : city.districts()) kinds.insert(d.kind);
  EXPECT_EQ(kinds.size(), 4u);
}

// --- AP generator ---

TEST(ApGenerator, HonoursChainCounts) {
  Rng rng(5);
  const auto aps = default_aps(rng);
  std::map<std::string, int> counts;
  for (const auto& ap : aps) ++counts[ap.ssid];
  EXPECT_EQ(counts["7-Eleven Free Wifi"], 924);
  EXPECT_EQ(counts["#HKAirport Free WiFi"], 231);
  EXPECT_EQ(counts["-Free HKBN Wi-Fi-"], 1150);
}

TEST(ApGenerator, ChainAndHotAreaApsAreOpen) {
  Rng rng(5);
  for (const auto& ap : default_aps(rng)) {
    if (ap.category == ApCategory::kChain ||
        ap.category == ApCategory::kHotArea) {
      EXPECT_TRUE(ap.open) << ap.ssid;
    }
    if (ap.category == ApCategory::kEnterprise) {
      EXPECT_FALSE(ap.open) << ap.ssid;
    }
  }
}

TEST(ApGenerator, ResidentialMostlyProtected) {
  Rng rng(6);
  int open = 0, total = 0;
  for (const auto& ap : default_aps(rng)) {
    if (ap.category != ApCategory::kResidential) continue;
    ++total;
    if (ap.open) ++open;
  }
  EXPECT_GT(total, 1000);
  EXPECT_LT(static_cast<double>(open) / total, 0.08);
}

TEST(ApGenerator, HotAreaApsSitInTheirDistrictKind) {
  Rng rng(7);
  const auto city = default_city();
  for (const auto& ap : default_aps(rng)) {
    if (ap.ssid != "#HKAirport Free WiFi") continue;
    EXPECT_LT(medium::distance(ap.pos, {8800, 1400}), 2500.0);
  }
}

TEST(ApGenerator, BssidsAreUnique) {
  Rng rng(8);
  const auto aps = default_aps(rng);
  std::set<dot11::MacAddress> seen;
  for (const auto& ap : aps) seen.insert(ap.bssid);
  // Collisions possible in principle but vanishingly unlikely.
  EXPECT_GT(seen.size(), aps.size() - 3);
}

TEST(ApGenerator, DeterministicInSeed) {
  Rng rng1(9), rng2(9);
  const auto city = default_city();
  const auto a = generate_aps(city, rng1, default_ap_population());
  const auto b = generate_aps(city, rng2, default_ap_population());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a[i].ssid, b[i].ssid);
    EXPECT_EQ(a[i].bssid, b[i].bssid);
  }
}

// --- WigleDb ---

TEST(WigleDb, SnapshotExcludesCarriers) {
  Rng rng(10);
  const auto aps = default_aps(rng);
  const auto db = WigleDb::snapshot(aps, rng, WigleCoverage{});
  for (const auto& rec : db.records()) {
    EXPECT_NE(rec.category, ApCategory::kCarrier) << rec.ssid;
  }
}

TEST(WigleDb, CoverageIsPartial) {
  Rng rng(11);
  const auto aps = default_aps(rng);
  const auto db = WigleDb::snapshot(aps, rng, WigleCoverage{});
  EXPECT_LT(db.size(), aps.size());
  EXPECT_GT(db.size(), aps.size() / 3);
}

TEST(WigleDb, NearestFreeSsidsSortedByDistanceAndDeduped) {
  std::vector<AccessPointInfo> recs;
  auto mk = [&](const char* ssid, double x, bool open) {
    AccessPointInfo ap;
    ap.ssid = ssid;
    ap.pos = {x, 0};
    ap.open = open;
    recs.push_back(ap);
  };
  mk("far", 100, true);
  mk("near", 10, true);
  mk("secure", 1, false);   // excluded: not free
  mk("near", 12, true);     // duplicate SSID
  mk("mid", 50, true);
  const auto db = WigleDb::from_records(recs);
  const auto out = db.nearest_free_ssids({0, 0}, 10);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "near");
  EXPECT_EQ(out[1], "mid");
  EXPECT_EQ(out[2], "far");
}

TEST(WigleDb, FreeApCountsOnlyCountOpen) {
  std::vector<AccessPointInfo> recs;
  for (int i = 0; i < 5; ++i) {
    AccessPointInfo ap;
    ap.ssid = "chain";
    ap.open = i < 3;
    recs.push_back(ap);
  }
  const auto db = WigleDb::from_records(recs);
  const auto top = heatmap::top_by_ap_count(db, 10);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].ssid, "chain");
  EXPECT_EQ(top[0].score, 3.0);
}

// --- PhotoSet ---

TEST(PhotoSet, GeneratesRequestedCount) {
  const auto city = default_city();
  Rng rng(12);
  PhotoSetConfig cfg;
  cfg.photo_count = 5000;
  const auto photos = PhotoSet::generate(city, rng, cfg);
  EXPECT_EQ(photos.size(), 5000u);
}

TEST(PhotoSet, TouristBiasFavoursHotDistricts) {
  const auto city = default_city();
  Rng rng(13);
  PhotoSetConfig cfg;
  cfg.photo_count = 20000;
  cfg.tourist_fraction = 0.8;
  const auto photos = PhotoSet::generate(city, rng, cfg);
  int near_airport = 0, near_residential = 0;
  for (const auto& p : photos.positions()) {
    if (medium::distance(p, {8800, 1400}) < 1000) ++near_airport;
    if (medium::distance(p, {1200, 4800}) < 1000) ++near_residential;
  }
  EXPECT_GT(near_airport, near_residential);
}

// --- PnlModel ---

class PnlModelTest : public ::testing::Test {
 protected:
  PnlModelTest() : rng_(14), aps_(default_aps(rng_)), city_(default_city()) {}
  Rng rng_;
  std::vector<AccessPointInfo> aps_;
  CityModel city_;
};

TEST_F(PnlModelTest, EveryoneHasAHomeNetwork) {
  PnlModel model(city_, aps_);
  for (int i = 0; i < 100; ++i) {
    const auto p = model.make_person(rng_);
    bool has_home = false;
    for (const auto& e : p.pnl) has_home |= e.origin == PnlOrigin::kHome;
    EXPECT_TRUE(has_home);
  }
}

TEST_F(PnlModelTest, UniquePersonAndHomeIds) {
  PnlModel model(city_, aps_);
  std::set<std::uint64_t> ids;
  std::set<std::string> homes;
  for (int i = 0; i < 200; ++i) {
    const auto p = model.make_person(rng_);
    ids.insert(p.id);
    for (const auto& e : p.pnl) {
      if (e.origin == PnlOrigin::kHome) homes.insert(e.ssid);
    }
  }
  EXPECT_EQ(ids.size(), 200u);
  EXPECT_EQ(homes.size(), 200u);
}

TEST_F(PnlModelTest, NonUsersCarryNoPublicSsids) {
  PnlModel model(city_, aps_);
  for (int i = 0; i < 300; ++i) {
    const auto p = model.make_person(rng_);
    if (p.public_wifi_user) continue;
    for (const auto& e : p.pnl) {
      EXPECT_NE(e.origin, PnlOrigin::kVenueLocal);
    }
  }
}

TEST_F(PnlModelTest, DirectProbeFractionRoughlyConfigured) {
  PnlModelConfig cfg;
  cfg.direct_probe_fraction = 0.14;
  PnlModel model(city_, aps_, cfg);
  int direct = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    if (model.make_person(rng_).sends_direct_probes) ++direct;
  }
  EXPECT_NEAR(static_cast<double>(direct) / n, 0.14, 0.03);
}

TEST_F(PnlModelTest, RankedPublicSsidsExcludeHomesAndCarriers) {
  PnlModel model(city_, aps_);
  for (const auto& ssid : model.ranked_public_ssids()) {
    EXPECT_EQ(ssid.rfind("HOME-", 0), std::string::npos);
    EXPECT_NE(ssid, "PCCW1x");
    EXPECT_NE(ssid, "CMCC-AUTO");
  }
}

TEST_F(PnlModelTest, PopularSsidsRankAboveTail) {
  PnlModel model(city_, aps_);
  const auto& ranked = model.ranked_public_ssids();
  ASSERT_GT(ranked.size(), 100u);
  // Big chains must rank within the top slice.
  const auto find_rank = [&](const std::string& ssid) {
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      if (ranked[i] == ssid) return static_cast<long>(i);
    }
    return -1L;
  };
  const long hkbn = find_rank("-Free HKBN Wi-Fi-");
  ASSERT_GE(hkbn, 0);
  EXPECT_LT(hkbn, 20);
}

TEST_F(PnlModelTest, GroupsShareSsidsAndGroupId) {
  PnlModelConfig cfg;
  cfg.public_wifi_user_fraction = 1.0;  // everyone adopts at the full rate
  cfg.group_adopt_prob = 1.0;
  PnlModel model(city_, aps_, cfg);
  int shared_groups = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto group = model.make_group(rng_, 3);
    ASSERT_EQ(group.size(), 3u);
    EXPECT_NE(group[0].group_id, 0u);
    EXPECT_EQ(group[0].group_id, group[1].group_id);
    EXPECT_EQ(group[1].group_id, group[2].group_id);
    // Count pairwise common open SSIDs beyond coincidence.
    for (const auto& e : group[0].pnl) {
      if (e.origin == PnlOrigin::kGroupShared && group[1].knows(e.ssid)) {
        ++shared_groups;
        break;
      }
    }
  }
  EXPECT_GT(shared_groups, 40);
}

TEST_F(PnlModelTest, GroupsGetDistinctIds) {
  PnlModel model(city_, aps_);
  const auto g1 = model.make_group(rng_, 2);
  const auto g2 = model.make_group(rng_, 2);
  EXPECT_NE(g1[0].group_id, g2[0].group_id);
}

TEST_F(PnlModelTest, SingletonGroupHasNoGroupId) {
  PnlModel model(city_, aps_);
  const auto g = model.make_group(rng_, 1);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].group_id, 0u);
}

TEST_F(PnlModelTest, VenueRegularsComeFromUsers) {
  PnlModel model(city_, aps_);
  const std::vector<std::string> venue{"Canteen-X"};
  int regulars = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto p = model.make_person(rng_, venue, 1.0);
    const bool has = p.knows("Canteen-X");
    if (has) {
      ++regulars;
      EXPECT_TRUE(p.public_wifi_user);
    }
  }
  EXPECT_GT(regulars, 50);
}

TEST_F(PnlModelTest, CarrierEntriesOnlyOnIosNonLegacy) {
  PnlModel model(city_, aps_);
  for (int i = 0; i < 500; ++i) {
    const auto p = model.make_person(rng_);
    if (p.carrier.empty()) continue;
    EXPECT_EQ(p.os, Os::kIos);
    EXPECT_FALSE(p.sends_direct_probes);
    bool has_carrier_entry = false;
    for (const auto& e : p.pnl) {
      has_carrier_entry |= e.origin == PnlOrigin::kCarrier && e.open;
    }
    EXPECT_TRUE(has_carrier_entry);
  }
}

TEST_F(PnlModelTest, LocaleBiasSkewsDraws) {
  PnlModelConfig cfg;
  cfg.public_wifi_user_fraction = 1.0;  // everyone draws
  PnlModel model(city_, aps_, cfg);
  Locale locale;
  locale.ranked_ssids = {"LOCAL-ONLY-A", "LOCAL-ONLY-B", "LOCAL-ONLY-C"};
  locale.bias = 1.0;
  model.set_locale(locale);
  int local_draws = 0, total = 0;
  for (int i = 0; i < 200; ++i) {
    const auto p = model.make_person(rng_);
    for (const auto& e : p.pnl) {
      if (e.origin != PnlOrigin::kPublicVisit) continue;
      if (e.ssid.rfind("Hotel-Guest-", 0) == 0) continue;  // stale junk
      ++total;
      if (e.ssid.rfind("LOCAL-ONLY-", 0) == 0) ++local_draws;
    }
  }
  EXPECT_GT(total, 100);
  EXPECT_EQ(local_draws, total);
}

TEST_F(PnlModelTest, HasOpenEntryAndKnows) {
  Person p;
  p.pnl = {{"a", false, PnlOrigin::kHome}, {"b", true, PnlOrigin::kPublicVisit}};
  EXPECT_TRUE(p.has_open_entry());
  EXPECT_TRUE(p.knows("a"));
  EXPECT_FALSE(p.knows("c"));
  p.pnl.pop_back();
  EXPECT_FALSE(p.has_open_entry());
}

}  // namespace
}  // namespace cityhunter::world
