// Campaign-level golden regression: a small fixed-seed campaign must
// produce bit-identical statistics under every (spatial_grid, fault)
// combination for City-Hunter, and under both spatial_grid settings for
// KARMA, MANA and the preliminary design, matching the recorded values.
//
// This is the end-to-end determinism contract: the pooled frame codec,
// inline-storage event queue, flat radio table and reused builder frames
// are pure performance changes — any drift in these numbers means a
// behavioural change slipped into the hot path.
#include <gtest/gtest.h>

#include <string>

#include "sim/scenario.h"

namespace cityhunter {
namespace {

struct GoldenRow {
  sim::AttackerKind kind;
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
  // Hit attribution, as stats::analyze breaks it down for Fig 6.
  std::size_t hits_from_wigle;
  std::size_t hits_from_direct_db;
  std::size_t hits_from_carrier_seed;
  std::size_t hits_via_popularity;
  std::size_t hits_via_popularity_ghost;
  std::size_t hits_via_freshness;
  std::size_t hits_via_freshness_ghost;
  /// Sum over broadcast clients of the distinct SSIDs each was sent.
  long ssids_sent_broadcast_sum;
  std::uint64_t events_scheduled;
};

// Recorded from the pre-overhaul tree (canteen, 60 expected clients,
// 3 minutes, world seed 42, run seed 7). The grid and legacy medium paths
// must both reproduce these exactly. frames_delivered counts sink calls:
// unicast frames reach only their addressee and monitors. The fault-on row
// was re-recorded when per-link erasure draws became keyed by receiver.
// The hit-attribution, SSIDs-sent and events-scheduled columns, and the
// KARMA, MANA and preliminary rows, were recorded before the attacker moved
// to database ids and the event queue lost its cancellable handles. The
// canteen crowd has 11 direct probers, so the direct-reply path and
// hits_from_direct_db are exercised. frames_delivered, and the fault-on
// row's frames_lost, were re-recorded when phones became stations, which do
// not receive other phones' broadcast probe requests (no other column
// moved). The fault-on row was re-recorded once more when the sender's
// collision, corruption, backoff and bit-flip draws became keyed hashes.
constexpr GoldenRow kGolden[] = {
    {sim::AttackerKind::kCityHunter, false, 80, 11, 69, 2, 7, 4450, 4450, 0,
     0, 0, 240, 24, 32, 8, 7, 0, 0, 6, 0, 1, 0, 3680, 4884},
    {sim::AttackerKind::kCityHunter, true, 76, 11, 65, 2, 6, 3879, 3854, 19,
     6, 361, 237, 21, 32, 8, 6, 0, 0, 5, 0, 1, 0, 3240, 4312},
    {sim::AttackerKind::kKarma, false, 80, 11, 69, 2, 0, 186, 186, 0, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 621},
    {sim::AttackerKind::kMana, false, 80, 11, 69, 2, 2, 1607, 1607, 0, 0, 0,
     26, 26, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1115, 2042},
    {sim::AttackerKind::kPrelim, false, 80, 11, 69, 2, 3, 4598, 4598, 0, 0,
     0, 247, 24, 0, 0, 3, 0, 0, 0, 0, 0, 0, 3840, 5036},
};

sim::RunOutput run_golden(const sim::World& world, bool grid, bool fault,
                          sim::AttackerKind kind =
                              sim::AttackerKind::kCityHunter) {
  sim::RunConfig run;
  run.kind = kind;
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
  EXPECT_EQ(out.result.hits_from_wigle, g.hits_from_wigle);
  EXPECT_EQ(out.result.hits_from_direct_db, g.hits_from_direct_db);
  EXPECT_EQ(out.result.hits_from_carrier_seed, g.hits_from_carrier_seed);
  EXPECT_EQ(out.result.hits_via_popularity, g.hits_via_popularity);
  EXPECT_EQ(out.result.hits_via_popularity_ghost,
            g.hits_via_popularity_ghost);
  EXPECT_EQ(out.result.hits_via_freshness, g.hits_via_freshness);
  EXPECT_EQ(out.result.hits_via_freshness_ghost, g.hits_via_freshness_ghost);
  long sent_sum = 0;
  for (const int n : out.result.ssids_sent_all_broadcast) sent_sum += n;
  EXPECT_EQ(sent_sum, g.ssids_sent_broadcast_sum);
  EXPECT_EQ(out.queue_stats.scheduled, g.events_scheduled);
}

std::string row_name(const char* medium, const GoldenRow& g) {
  return std::string(medium) + ", " + sim::to_string(g.kind) +
         (g.fault ? ", fault on" : ", fault off");
}

TEST_F(GoldenCampaignTest, GridMatchesGolden) {
  for (const auto& g : kGolden) {
    SCOPED_TRACE(row_name("grid", g));
    expect_matches(run_golden(*world_, /*grid=*/true, g.fault, g.kind), g);
  }
}

TEST_F(GoldenCampaignTest, LegacyScanMatchesGolden) {
  for (const auto& g : kGolden) {
    SCOPED_TRACE(row_name("legacy", g));
    expect_matches(run_golden(*world_, /*grid=*/false, g.fault, g.kind), g);
  }
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
