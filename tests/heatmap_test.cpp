#include <gtest/gtest.h>

#include <limits>

#include "heatmap/heatmap.h"
#include "support/rng.h"
#include "world/ap_generator.h"
#include "world/city.h"
#include "world/photos.h"

namespace cityhunter::heatmap {
namespace {

using support::Rng;
using world::AccessPointInfo;

TEST(HeatMap, BinsPhotosIntoCells) {
  world::CityModel city;
  Rng rng(1);
  world::PhotoSetConfig cfg;
  cfg.photo_count = 10000;
  const auto photos = world::PhotoSet::generate(city, rng, cfg);
  HeatMap heat(photos, city.width(), city.height(), 250.0);
  EXPECT_EQ(heat.cols(), 40u);
  EXPECT_EQ(heat.rows(), 40u);
  // Total photos across cells equals the photo count (all in bounds).
  double total = 0;
  for (std::size_t r = 0; r < heat.rows(); ++r) {
    for (std::size_t c = 0; c < heat.cols(); ++c) {
      total += heat.cell(c, r);
    }
  }
  // Photos clamped exactly onto the far boundary fall outside the grid.
  EXPECT_GE(total, 9900.0);
  EXPECT_LE(total, 10000.0);
}

TEST(HeatMap, OutOfBoundsQueriesAreZero) {
  world::CityModel city;
  Rng rng(2);
  const auto photos = world::PhotoSet::generate(city, rng, {});
  HeatMap heat(photos, city.width(), city.height());
  EXPECT_DOUBLE_EQ(heat.at({-1, 50}), 0.0);
  EXPECT_DOUBLE_EQ(heat.at({50, -1}), 0.0);
  EXPECT_DOUBLE_EQ(heat.at({city.width() + 1, 50}), 0.0);
  // A NaN coordinate used to be cast to a cell index (UBSan:
  // float-cast-overflow).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(heat.at({nan, 50}), 0.0);
  EXPECT_DOUBLE_EQ(heat.at({50, nan}), 0.0);
}

TEST(HeatMap, RejectsBadDimensions) {
  world::PhotoSet photos;
  EXPECT_THROW(HeatMap(photos, 0, 100), std::invalid_argument);
  EXPECT_THROW(HeatMap(photos, 100, 100, -1), std::invalid_argument);
}

TEST(HeatMap, RejectsNonFiniteDimensions) {
  // These used to be accepted: a NaN or infinite extent or cell size was
  // cast to a column count (UB), giving 0 or 2^63 columns.
  world::PhotoSet photos;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, 0.0}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(HeatMap(photos, bad, 100, 10), std::invalid_argument);
    EXPECT_THROW(HeatMap(photos, 100, bad, 10), std::invalid_argument);
    EXPECT_THROW(HeatMap(photos, 100, 100, bad), std::invalid_argument);
  }
  const HeatMap ok(photos, 100, 100, 10);
  EXPECT_EQ(ok.cols(), 10u);
  EXPECT_EQ(ok.rows(), 10u);
  // Finite dimensions whose ratio overflows have no grid either; one that
  // underflows still gets a cell for its photos.
  EXPECT_THROW(HeatMap(photos, 1e300, 100, 1e-300), std::length_error);
  const HeatMap tiny(photos, 1e-300, 1e-300, 1e300);
  EXPECT_EQ(tiny.cols(), 1u);
  EXPECT_EQ(tiny.rows(), 1u);
}

TEST(HeatMap, HotDistrictsBeatQuietCorners) {
  world::CityModel city;
  Rng rng(3);
  world::PhotoSetConfig cfg;
  cfg.photo_count = 50000;
  const auto photos = world::PhotoSet::generate(city, rng, cfg);
  HeatMap heat(photos, city.width(), city.height());
  EXPECT_GT(heat.at({5000, 5000}), heat.at({200, 200}) + 10);  // central core
  EXPECT_GT(heat.at({8800, 1400}), heat.at({9800, 9800}));     // airport
}

TEST(HeatMap, SsidHeatSumsOverFreeAps) {
  world::CityModel city;
  Rng rng(4);
  world::PhotoSetConfig pcfg;
  pcfg.photo_count = 30000;
  const auto photos = world::PhotoSet::generate(city, rng, pcfg);
  HeatMap heat(photos, city.width(), city.height());

  std::vector<AccessPointInfo> recs;
  auto mk = [&](const char* ssid, medium::Position pos, bool open) {
    AccessPointInfo ap;
    ap.ssid = ssid;
    ap.pos = pos;
    ap.open = open;
    recs.push_back(ap);
  };
  mk("hot", {5000, 5000}, true);
  mk("hot", {5050, 5050}, true);
  mk("hot-but-secure", {5000, 5000}, false);
  mk("cold", {200, 9800}, true);
  const auto wigle = world::WigleDb::from_records(recs);

  const auto top = top_by_heat(wigle, heat, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].ssid, "hot");
  EXPECT_EQ(top[0].score,
            heat.at({5000, 5000}) + heat.at({5050, 5050}));
  EXPECT_EQ(top[1].ssid, "cold");
  EXPECT_GT(top[0].score, top[1].score);
  // A secure AP adds nothing: it is not a free SSID at all.
  for (const auto& s : top) EXPECT_NE(s.ssid, "hot-but-secure");
}

TEST(HeatMap, CsvHasRowPerGridRow) {
  world::CityModel city;
  Rng rng(5);
  const auto photos = world::PhotoSet::generate(city, rng, {});
  HeatMap heat(photos, city.width(), city.height(), 500.0);
  const auto csv = heat.to_csv();
  std::size_t lines = 0;
  for (const char ch : csv) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, heat.rows());
}

TEST(HeatMap, AsciiRenderIsNonEmpty) {
  world::CityModel city;
  Rng rng(6);
  world::PhotoSetConfig cfg;
  cfg.photo_count = 5000;
  const auto photos = world::PhotoSet::generate(city, rng, cfg);
  HeatMap heat(photos, city.width(), city.height());
  const auto ascii = heat.to_ascii(40);
  EXPECT_GT(ascii.size(), 100u);
  EXPECT_NE(ascii.find('@'), std::string::npos);  // a peak cell exists
}

// --- ranking helpers ---

TEST(Ranking, TopByApCountOrdersByCount) {
  std::vector<AccessPointInfo> recs;
  for (int i = 0; i < 5; ++i) {
    AccessPointInfo ap;
    ap.ssid = "many";
    ap.open = true;
    recs.push_back(ap);
  }
  AccessPointInfo one;
  one.ssid = "few";
  one.open = true;
  recs.push_back(one);
  const auto wigle = world::WigleDb::from_records(recs);
  const auto top = top_by_ap_count(wigle, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].ssid, "many");
  EXPECT_DOUBLE_EQ(top[0].score, 5.0);
  EXPECT_EQ(top[1].ssid, "few");
}

TEST(Ranking, TopKTruncates) {
  std::vector<AccessPointInfo> recs;
  for (int i = 0; i < 10; ++i) {
    AccessPointInfo ap;
    ap.ssid = "ssid-" + std::to_string(i);
    ap.open = true;
    recs.push_back(ap);
  }
  const auto wigle = world::WigleDb::from_records(recs);
  EXPECT_EQ(top_by_ap_count(wigle, 3).size(), 3u);
}

TEST(Ranking, RankWeightsAreBarronBarrett) {
  const auto w = rank_weights(5);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_DOUBLE_EQ(w[0], 5.0);
  EXPECT_DOUBLE_EQ(w[4], 1.0);
  EXPECT_TRUE(rank_weights(0).empty());
}

TEST(Ranking, HeatPromotesHotAreaSsids) {
  // An SSID with few APs in a hot cell must outrank one with more APs in
  // cold cells — Table IV's core claim, in miniature.
  world::CityModel city;
  Rng rng(7);
  world::PhotoSetConfig cfg;
  cfg.photo_count = 50000;
  const auto photos = world::PhotoSet::generate(city, rng, cfg);
  HeatMap heat(photos, city.width(), city.height());

  std::vector<AccessPointInfo> recs;
  auto mk = [&](const char* ssid, medium::Position pos) {
    AccessPointInfo ap;
    ap.ssid = ssid;
    ap.pos = pos;
    ap.open = true;
    recs.push_back(ap);
  };
  // 'airport-like': 2 APs in the central core (hot).
  mk("airport-like", {5000, 5000});
  mk("airport-like", {5100, 4950});
  // 'suburb-chain': 6 APs in quiet corners.
  for (int i = 0; i < 6; ++i) {
    mk("suburb-chain", {300.0 + i * 50, 9700.0});
  }
  const auto wigle = world::WigleDb::from_records(recs);

  const auto by_count = top_by_ap_count(wigle, 2);
  EXPECT_EQ(by_count[0].ssid, "suburb-chain");
  const auto by_heat = top_by_heat(wigle, heat, 2);
  EXPECT_EQ(by_heat[0].ssid, "airport-like");
}

}  // namespace
}  // namespace cityhunter::heatmap
