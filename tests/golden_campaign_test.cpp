// Campaign-level golden regression: a small fixed-seed campaign must
// produce bit-identical statistics under every (spatial_grid, fault)
// combination, and those statistics must match the values recorded when
// the hot-path allocation overhaul landed.
//
// This is the end-to-end determinism contract: the pooled frame codec,
// inline-storage event queue, flat radio table and reused builder frames
// are pure performance changes — any drift in these numbers means a
// behavioural change slipped into the hot path.
#include <gtest/gtest.h>

#include "city_scale.h"
#include "sim/scenario.h"

namespace cityhunter {
namespace {

struct GoldenRow {
  bool fault;
  std::size_t total_clients;
  std::size_t direct_clients;
  std::size_t broadcast_clients;
  std::size_t direct_connected;
  std::size_t broadcast_connected;
  std::uint64_t frames_transmitted;
  std::uint64_t frames_delivered;
  std::uint64_t frames_lost;
  std::uint64_t frames_corrupted;
  std::uint64_t retries;
  std::size_t db_final_size;
  std::size_t db_from_direct;
  int final_pb_size;
  int final_fb_size;
};

// Recorded from the pre-overhaul tree (canteen, 60 expected clients,
// 3 minutes, world seed 42, run seed 7). The grid and legacy medium paths
// must both reproduce these exactly.
constexpr GoldenRow kGolden[] = {
    {false, 80, 11, 69, 2, 7, 4450, 214318, 0, 0, 0, 240, 24, 32, 8},
    {true, 77, 11, 66, 1, 5, 4002, 199278, 1268, 2, 449, 239, 23, 32, 8},
};

sim::RunOutput run_golden(const sim::World& world, bool grid, bool fault) {
  sim::RunConfig run;
  run.kind = sim::AttackerKind::kCityHunter;
  run.venue = mobility::canteen_venue();
  run.slot.expected_clients = 60;
  run.slot.group_fraction = 0.3;
  run.duration = support::SimTime::minutes(3);
  run.run_seed = 7;
  medium::Medium::Config mcfg;
  mcfg.spatial_grid = grid;
  if (fault) {
    mcfg.fault.enabled = true;
    mcfg.fault.ambient_loss = 0.08;
    mcfg.fault.corruption_rate = 0.02;
  }
  run.medium = mcfg;
  return sim::run_campaign(world, run);
}

class GoldenCampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig scfg;
    scfg.seed = 42;
    world_ = new sim::World(scfg);
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static sim::World* world_;
};

sim::World* GoldenCampaignTest::world_ = nullptr;

void expect_matches(const sim::RunOutput& out, const GoldenRow& g) {
  EXPECT_FALSE(out.error.failed()) << out.error.str();
  EXPECT_EQ(out.result.total_clients, g.total_clients);
  EXPECT_EQ(out.result.direct_clients, g.direct_clients);
  EXPECT_EQ(out.result.broadcast_clients, g.broadcast_clients);
  EXPECT_EQ(out.result.direct_connected, g.direct_connected);
  EXPECT_EQ(out.result.broadcast_connected, g.broadcast_connected);
  EXPECT_EQ(out.frames_transmitted, g.frames_transmitted);
  EXPECT_EQ(out.frames_delivered, g.frames_delivered);
  EXPECT_EQ(out.medium_stats.frames_lost, g.frames_lost);
  EXPECT_EQ(out.medium_stats.frames_corrupted, g.frames_corrupted);
  EXPECT_EQ(out.medium_stats.retries, g.retries);
  EXPECT_EQ(out.db_final_size, g.db_final_size);
  EXPECT_EQ(out.db_from_direct, g.db_from_direct);
  EXPECT_EQ(out.final_pb_size, g.final_pb_size);
  EXPECT_EQ(out.final_fb_size, g.final_fb_size);
}

TEST_F(GoldenCampaignTest, GridMatchesGolden) {
  for (const auto& g : kGolden) {
    SCOPED_TRACE(g.fault ? "grid, fault on" : "grid, fault off");
    expect_matches(run_golden(*world_, /*grid=*/true, g.fault), g);
  }
}

TEST_F(GoldenCampaignTest, LegacyScanMatchesGolden) {
  for (const auto& g : kGolden) {
    SCOPED_TRACE(g.fault ? "legacy, fault on" : "legacy, fault off");
    expect_matches(run_golden(*world_, /*grid=*/false, g.fault), g);
  }
}

// City-scale district (bench/city_scale.h) at test-budget size: the grid
// pipeline and the legacy-scan oracle must produce exactly these traffic
// totals. Any drift means the channel-partitioned index, the d² range
// filter, the pathloss LUT or the pair cache changed delivery *behaviour*
// instead of just delivery *speed*.
TEST(CityScaleGolden, PinnedCountsAcrossPipelines) {
  bench::CityScaleParams params;
  params.radios = 400;
  params.area_m = 400.0;
  params.duration = support::SimTime::seconds(2.0);

  medium::Medium::Config scan_cfg;
  scan_cfg.spatial_grid = false;
  scan_cfg.pathloss_lut = false;
  scan_cfg.pathloss_cache = false;

  const bench::CityScaleResult batched =
      bench::run_city_scale(params, medium::Medium::Config{});
  const bench::CityScaleResult scan =
      bench::run_city_scale(params, scan_cfg);

  EXPECT_EQ(batched.transmissions, scan.transmissions);
  EXPECT_EQ(batched.deliveries, scan.deliveries);

  // Golden totals recorded when the batched pipeline landed (seed 2026,
  // 400 radios on 400 m, 2 simulated seconds).
  EXPECT_EQ(batched.transmissions, 2638u);
  EXPECT_EQ(batched.deliveries, 21061u);
  // The static AP↔AP beacon fanout must actually exercise the pair cache.
  EXPECT_GT(batched.cache_hits, 0u);
}

TEST_F(GoldenCampaignTest, RepeatedRunsAreBitIdentical) {
  // Pooled transmissions and recycled event slots must not leak state
  // between runs against the same world.
  const auto a = run_golden(*world_, /*grid=*/true, /*fault=*/true);
  const auto b = run_golden(*world_, /*grid=*/true, /*fault=*/true);
  EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.medium_stats.frames_lost, b.medium_stats.frames_lost);
  EXPECT_EQ(a.db_final_size, b.db_final_size);
  EXPECT_EQ(a.result.total_clients, b.result.total_clients);
  EXPECT_EQ(a.series, b.series);
}

}  // namespace
}  // namespace cityhunter
