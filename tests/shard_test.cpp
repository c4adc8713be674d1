// Tests for the continuous sharded city (sim/shard) and its building
// blocks: the district-grid geometry, the conservative barrier, the
// self-determined walker, the delivery-log canonical form, and the
// Medium's boundary radio export/import. The headline assertions are the
// determinism contract from shard.h: byte-identical delivery multisets at
// any shard count and any worker count.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "medium/event_queue.h"
#include "medium/medium.h"
#include "medium/propagation.h"
#include "mobility/district_walk.h"
#include "obs/delivery_log.h"
#include "sim/shard.h"
#include "sim/shard_barrier.h"
#include "support/rng.h"
#include "support/sim_time.h"
#include "world/district_grid.h"

namespace cityhunter {
namespace {

using support::Rng;
using support::SimTime;
using world::DistrictGrid;

// ---------------------------------------------------------------------------
// DistrictGrid geometry

TEST(DistrictGridTest, PartitionsThePlaneAtGapMidlines) {
  DistrictGrid::Config cfg;
  cfg.cols = 8;
  cfg.rows = 2;
  cfg.district_m = 500.0;
  cfg.gap_m = 136.0;
  const DistrictGrid grid(cfg);

  EXPECT_EQ(grid.districts(), 16);
  EXPECT_DOUBLE_EQ(grid.pitch(), 636.0);
  EXPECT_DOUBLE_EQ(grid.width(), 8 * 636.0 - 136.0);

  // Inside the first district square.
  EXPECT_TRUE(grid.in_district({250.0, 250.0}));
  EXPECT_EQ(grid.owner_column({250.0, 250.0}), 0);
  // In the first vertical gap, just before its midline: still column 0.
  EXPECT_TRUE(grid.in_gap({500.0 + 67.9, 250.0}));
  EXPECT_EQ(grid.owner_column({500.0 + 67.9, 250.0}), 0);
  // Just past the midline: column 1, even though still in the gap.
  EXPECT_TRUE(grid.in_gap({500.0 + 68.1, 250.0}));
  EXPECT_EQ(grid.owner_column({500.0 + 68.1, 250.0}), 1);
  // Horizontal gaps never change the owner column.
  EXPECT_TRUE(grid.in_gap({250.0, 550.0}));
  EXPECT_EQ(grid.owner_column({250.0, 550.0}), 0);
  // Off-city positions clamp to the edge columns.
  EXPECT_EQ(grid.owner_column({-50.0, 0.0}), 0);
  EXPECT_EQ(grid.owner_column({1e9, 0.0}), 7);

  // Shard ownership: contiguous column groups.
  EXPECT_EQ(grid.owner_shard({250.0, 250.0}, 4), 0);
  EXPECT_EQ(grid.owner_shard({500.0 + 68.1, 250.0}, 4), 0);  // col 1, pair 0
  EXPECT_EQ(grid.owner_shard({2 * 636.0 + 250.0, 250.0}, 4), 1);  // col 2
  EXPECT_EQ(grid.owner_shard({250.0, 250.0}, 1), 0);
  EXPECT_EQ(grid.owner_shard({7 * 636.0 + 250.0, 250.0}, 8), 7);
}

TEST(DistrictGridTest, SamplesStrictlyInsideTheDistrict) {
  const DistrictGrid grid({});
  Rng rng(7);
  for (int d = 0; d < grid.districts(); ++d) {
    const auto cell = grid.cell(d);
    const auto origin = grid.district_origin(cell);
    for (int i = 0; i < 32; ++i) {
      const auto p = grid.sample_in(cell, rng);
      EXPECT_TRUE(grid.in_district(p));
      EXPECT_GT(p.x, origin.x);
      EXPECT_LT(p.x, origin.x + grid.config().district_m);
      EXPECT_GT(p.y, origin.y);
      EXPECT_LT(p.y, origin.y + grid.config().district_m);
    }
  }
}

TEST(DistrictGridTest, RejectsDegenerateConfigs) {
  DistrictGrid::Config cfg;
  cfg.cols = 0;
  EXPECT_THROW(DistrictGrid{cfg}, std::invalid_argument);
  cfg = {};
  cfg.gap_m = -1.0;
  EXPECT_THROW(DistrictGrid{cfg}, std::invalid_argument);
  cfg = {};
  cfg.district_m = 0.0;
  EXPECT_THROW(DistrictGrid{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Conservative barrier

TEST(ConservativeBarrierTest, CutsTheHorizonIntoEpochs) {
  const sim::ConservativeBarrier barrier(
      {SimTime::seconds(3.0), SimTime::seconds(10.0)});
  ASSERT_EQ(barrier.epochs(), 4u);
  EXPECT_EQ(barrier.epoch_end(0), SimTime::seconds(3.0));
  EXPECT_EQ(barrier.epoch_end(2), SimTime::seconds(9.0));
  EXPECT_EQ(barrier.epoch_end(3), SimTime::seconds(10.0));  // truncated

  // A horizon shorter than the lookahead is one truncated epoch.
  const sim::ConservativeBarrier one(
      {SimTime::seconds(5.0), SimTime::seconds(2.0)});
  ASSERT_EQ(one.epochs(), 1u);
  EXPECT_EQ(one.epoch_end(0), SimTime::seconds(2.0));

  EXPECT_THROW(sim::ConservativeBarrier(
                   {SimTime::microseconds(0), SimTime::seconds(1.0)}),
               std::invalid_argument);
}

TEST(ConservativeBarrierTest, LookaheadBoundsWalkerPenetration) {
  // gap 136, range 60, speed 1.4, tick 1, margin 2: the walker may penetrate
  // speed * (tick + epoch) + margin past the midline, which must stay short
  // of gap/2 - range = 8 m. epoch = (8 - 2) / 1.4 - 1 ~= 3.2857 s.
  const SimTime epoch = sim::ConservativeBarrier::max_safe_lookahead(
      136.0, 60.0, 1.4, 1.0, 2.0);
  EXPECT_NEAR(epoch.sec(), 6.0 / 1.4 - 1.0, 1e-6);
  const double penetration = 1.4 * (1.0 + epoch.sec()) + 2.0;
  EXPECT_LE(penetration, 136.0 / 2.0 - 60.0 + 1e-9);

  // A gap that cannot host any positive epoch throws.
  EXPECT_THROW(
      sim::ConservativeBarrier::max_safe_lookahead(120.0, 60.0, 1.4, 1.0, 2.0),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DistrictWalker

TEST(DistrictWalkerTest, ForkedStreamReplaysTheExactTrajectory) {
  const DistrictGrid grid({});
  const Rng root(99);
  mobility::DistrictWalker a(&grid, root.fork("walker-3"), 1.4);
  mobility::DistrictWalker b(&grid, root.fork("walker-3"), 1.4);
  ASSERT_EQ(a.pos().x, b.pos().x);
  ASSERT_EQ(a.pos().y, b.pos().y);
  for (int i = 0; i < 2000; ++i) {
    const auto pa = a.step(1.0);
    const auto pb = b.step(1.0);
    ASSERT_EQ(pa.x, pb.x);
    ASSERT_EQ(pa.y, pb.y);
  }
  // And a different fork diverges immediately.
  mobility::DistrictWalker c(&grid, root.fork("walker-4"), 1.4);
  EXPECT_TRUE(c.pos().x != a.pos().x || c.pos().y != a.pos().y);
}

TEST(DistrictWalkerTest, WaypointsAlwaysLandInsideDistricts) {
  const DistrictGrid grid({});
  mobility::DistrictWalker w(&grid, Rng(5), 1.4);
  EXPECT_TRUE(grid.in_district(w.pos()));
  for (int i = 0; i < 5000; ++i) {
    w.step(1.0);
    EXPECT_TRUE(grid.in_district(w.waypoint()));
  }
}

// ---------------------------------------------------------------------------
// DeliveryLog canonical form

TEST(DeliveryLogTest, DigestIsOrderIndependentAndMultiplicityAware) {
  obs::DeliveryLog forward(true);
  obs::DeliveryLog backward(true);
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    forward.record(i * 100, 1, 2, -60.0 - i, 6);
  }
  for (int i = n - 1; i >= 0; --i) {
    backward.record(i * 100, 1, 2, -60.0 - i, 6);
  }
  EXPECT_EQ(forward.digest(), backward.digest());
  EXPECT_EQ(forward.count(), backward.count());

  // Sum (not xor): a duplicated record changes the digest.
  obs::DeliveryLog once;
  obs::DeliveryLog twice;
  once.record(42, 7, 8, -70.0, 1);
  twice.record(42, 7, 8, -70.0, 1);
  twice.record(42, 7, 8, -70.0, 1);
  EXPECT_NE(once.digest(), twice.digest());

  // Partitioning the same records over two logs leaves the combined digest
  // unchanged — the shard-count invariance in miniature.
  obs::DeliveryLog left;
  obs::DeliveryLog right;
  for (int i = 0; i < n; ++i) {
    (i % 3 == 0 ? left : right).record(i * 100, 1, 2, -60.0 - i, 6);
  }
  const obs::DeliveryLog* split[] = {&left, &right};
  const obs::DeliveryLog* whole[] = {&forward};
  EXPECT_EQ(obs::combined_digest(split), obs::combined_digest(whole));
}

TEST(DeliveryLogTest, RecordHashSeesEveryBit) {
  const obs::DeliveryRecord records[] = {
      {0, 1, 2, 0, 0},
      {1'234'567, 42, 4242, std::bit_cast<std::uint64_t>(-61.5), 6},
      {-1, ~std::uint64_t{0}, 7, std::bit_cast<std::uint64_t>(-95.25), 11},
  };
  for (const auto& r : records) {
    SCOPED_TRACE(testing::Message() << "record at " << r.time_us);
    const std::uint64_t h = obs::record_hash(r);
    for (int bit = 0; bit < 64; ++bit) {
      const std::uint64_t m = std::uint64_t{1} << bit;
      auto t = r;
      t.time_us = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(r.time_us) ^ m);
      EXPECT_NE(obs::record_hash(t), h) << "time_us bit " << bit;
      t = r;
      t.tx_id ^= m;
      EXPECT_NE(obs::record_hash(t), h) << "tx_id bit " << bit;
      t = r;
      t.rx_id ^= m;
      EXPECT_NE(obs::record_hash(t), h) << "rx_id bit " << bit;
      t = r;
      t.rssi_bits ^= m;
      EXPECT_NE(obs::record_hash(t), h) << "rssi_bits bit " << bit;
      if (bit < 8) {
        t = r;
        t.channel = static_cast<std::uint8_t>(r.channel ^ m);
        EXPECT_NE(obs::record_hash(t), h) << "channel bit " << bit;
      }
    }
    // Which radio sent and which heard is part of the record.
    auto swapped = r;
    std::swap(swapped.tx_id, swapped.rx_id);
    EXPECT_NE(obs::record_hash(swapped), h);
  }
  // Pinned, so a later change to the function is a deliberate one: every
  // delivery digest moves with it.
  EXPECT_EQ(obs::record_hash(records[0]), 0x8e632e18e3455f70ULL);
  EXPECT_EQ(obs::record_hash(records[1]), 0xa210d91f357a57beULL);
}

TEST(DeliveryLogTest, MergeFollowsInputOrder) {
  obs::DeliveryLog a(true);
  obs::DeliveryLog b(true);
  a.record(10, 1, 2, -50.0, 1);
  b.record(5, 3, 4, -55.0, 6);
  a.record(20, 1, 2, -51.0, 1);
  const obs::DeliveryLog* logs[] = {&a, &b};
  const auto merged = obs::merge_by_input_order(logs);
  ASSERT_EQ(merged.size(), 3u);
  // Log a's records first (input order), then log b's — not time order.
  EXPECT_EQ(merged[0].time_us, 10);
  EXPECT_EQ(merged[1].time_us, 20);
  EXPECT_EQ(merged[2].time_us, 5);
}

// ---------------------------------------------------------------------------
// Medium boundary export/import

TEST(MediumExportImportTest, SnapshotCarriesCountersAcrossMediums) {
  struct CountingSink final : medium::FrameSink {
    int frames = 0;
    void on_frame(const dot11::Frame&, const medium::RxInfo&) override {
      ++frames;
    }
  };

  medium::EventQueue events_a;
  medium::Medium city_a(events_a);
  CountingSink rx_sink;
  auto rx = city_a.attach({10.0, 0.0}, 6, 15.0, &rx_sink);
  auto tx = city_a.attach({0.0, 0.0}, 6, 15.0, nullptr);
  const auto probe =
      dot11::make_broadcast_probe_request(dot11::MacAddress::broadcast());
  tx.transmit(probe);
  tx.transmit(probe);
  events_a.run_until(SimTime::seconds(1.0));
  ASSERT_EQ(tx.frames_sent(), 2u);
  ASSERT_EQ(rx_sink.frames, 2);

  // Hand the transmitter off to a second Medium, receive address included.
  const dot11::MacAddress own({0x02, 0xc1, 0, 0, 0, 0x42});
  tx.set_rx_address(own);
  const auto snapshot = city_a.export_radio(tx);
  EXPECT_EQ(snapshot.frames_sent, 2u);
  EXPECT_EQ(snapshot.channel, 6);
  EXPECT_DOUBLE_EQ(snapshot.tx_power_dbm, 15.0);
  EXPECT_EQ(snapshot.rx_address, own);

  medium::EventQueue events_b;
  medium::Medium city_b(events_b);
  CountingSink rx_sink_b;
  CountingSink tx_sink_b;
  auto rx_b = city_b.attach({10.0, 0.0}, 6, 15.0, &rx_sink_b);
  auto tx_b = city_b.import_radio(snapshot, &tx_sink_b);
  EXPECT_EQ(tx_b.frames_sent(), 2u);  // counters continue, not reset
  EXPECT_EQ(tx_b.channel(), 6);
  tx_b.transmit(probe);
  events_b.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(tx_b.frames_sent(), 3u);
  EXPECT_EQ(rx_sink_b.frames, 1);

  // The imported radio still answers to its address, and only to it.
  const dot11::MacAddress peer({0x02, 0xc1, 0, 0, 0, 0x43});
  rx_b.transmit(dot11::make_probe_response(peer, own, "S", 6, true));
  rx_b.transmit(dot11::make_probe_response(peer, peer, "S", 6, true));
  events_b.run_until(SimTime::seconds(2.0));
  EXPECT_EQ(tx_sink_b.frames, 1);
  (void)rx;
}

// ---------------------------------------------------------------------------
// The sharded city itself

// A compact city tuned so the test is fast but every mechanism fires: low
// TX powers shrink the radio ranges, which lets the guard gaps (and so the
// walkers' gap transits) shrink with them, so plenty of phones cross shard
// boundaries within the simulated window.
sim::ShardedCityConfig test_city() {
  sim::ShardedCityConfig cfg;
  cfg.radios = 160;
  cfg.ap_fraction = 0.25;
  cfg.ap_tx_dbm = 5.0;     // ~23 m range
  cfg.phone_tx_dbm = 0.0;  // ~17 m range
  cfg.grid.cols = 8;
  cfg.grid.rows = 1;
  cfg.grid.district_m = 60.0;
  cfg.grid.gap_m = 70.0;
  cfg.duration = SimTime::seconds(120.0);
  cfg.seed = 1234;
  cfg.keep_deliveries = true;
  return cfg;
}

std::vector<obs::DeliveryRecord> sorted_records(
    const sim::ShardedCityResult& r) {
  auto records = r.delivery_records;
  std::sort(records.begin(), records.end());
  return records;
}

TEST(ShardedCityTest, DeliveriesAreByteIdenticalAtAnyShardCount) {
  const auto cfg = test_city();
  const auto baseline = sim::run_sharded_city(cfg);
  ASSERT_GT(baseline.deliveries, 0u);
  ASSERT_GT(baseline.gap_silences, 0u);  // walkers do transit gaps
  ASSERT_EQ(baseline.handoffs, 0u);      // single shard: nothing to hand off
  ASSERT_EQ(baseline.delivery_records.size(), baseline.deliveries);
  const auto golden = sorted_records(baseline);

  for (int shards : {2, 4, 8}) {
    auto sharded_cfg = cfg;
    sharded_cfg.shards = shards;
    const auto r = sim::run_sharded_city(sharded_cfg);
    SCOPED_TRACE(testing::Message() << shards << " shards");
    EXPECT_GT(r.handoffs, 0u) << "no client ever crossed a shard boundary";
    EXPECT_EQ(r.transmissions, baseline.transmissions);
    EXPECT_EQ(r.deliveries, baseline.deliveries);
    EXPECT_EQ(r.gap_silences, baseline.gap_silences);
    EXPECT_EQ(r.delivery_digest, baseline.delivery_digest);
    // The digest is the benches' proxy; here the full multiset backs it up.
    EXPECT_TRUE(sorted_records(r) == golden);
  }
}

TEST(ShardedCityTest, DeliveriesAreByteIdenticalAtAnyWorkerCount) {
  auto cfg = test_city();
  cfg.shards = 4;
  cfg.workers = 1;
  const auto serial = sim::run_sharded_city(cfg);
  ASSERT_GT(serial.handoffs, 0u);

  for (std::size_t workers : {2u, 4u}) {
    cfg.workers = workers;
    const auto r = sim::run_sharded_city(cfg);
    SCOPED_TRACE(testing::Message() << workers << " workers");
    EXPECT_EQ(r.workers, workers);
    EXPECT_EQ(r.handoffs, serial.handoffs);
    EXPECT_EQ(r.transmissions, serial.transmissions);
    EXPECT_EQ(r.deliveries, serial.deliveries);
    EXPECT_EQ(r.gap_silences, serial.gap_silences);
    EXPECT_EQ(r.delivery_digest, serial.delivery_digest);
    EXPECT_TRUE(sorted_records(r) == sorted_records(serial));
    // Threading must not even change per-shard event counts: the partition
    // of work is fixed, only who executes it varies.
    ASSERT_EQ(r.per_shard.size(), serial.per_shard.size());
    for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
      EXPECT_EQ(r.per_shard[s].events_processed,
                serial.per_shard[s].events_processed);
      EXPECT_EQ(r.per_shard[s].handoffs_in, serial.per_shard[s].handoffs_in);
      EXPECT_EQ(r.per_shard[s].handoffs_out,
                serial.per_shard[s].handoffs_out);
    }
  }
}

TEST(ShardedCityTest, GridPipelineMatchesTheScanOracle) {
  // The legacy scan with exact math is the oracle. The grid with exact math
  // must match it record for record, RSSI bits included; the default grid
  // (path-loss LUT) must deliver the same frames, with RSSI within the
  // LUT's analytic error bound. 4 shards put handoffs in play.
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    auto cfg = test_city();
    cfg.shards = shards;
    auto scan_cfg = cfg;
    scan_cfg.medium.spatial_grid = false;
    scan_cfg.medium.pathloss_lut = false;
    auto exact_cfg = cfg;
    exact_cfg.medium.pathloss_lut = false;

    const auto scan = sim::run_sharded_city(scan_cfg);
    EXPECT_EQ(scan.transmissions, 50607u);
    EXPECT_EQ(scan.deliveries, 93364u);
    EXPECT_EQ(scan.gap_silences, 3459u);
    const auto oracle = sorted_records(scan);
    ASSERT_EQ(oracle.size(), scan.deliveries);

    const auto exact = sim::run_sharded_city(exact_cfg);
    EXPECT_EQ(exact.transmissions, scan.transmissions);
    EXPECT_EQ(exact.gap_silences, scan.gap_silences);
    EXPECT_EQ(exact.delivery_digest, scan.delivery_digest);
    EXPECT_TRUE(sorted_records(exact) == oracle);

    const auto grid = sim::run_sharded_city(cfg);
    EXPECT_EQ(grid.transmissions, scan.transmissions);
    EXPECT_EQ(grid.gap_silences, scan.gap_silences);
    const auto lut = sorted_records(grid);
    ASSERT_EQ(lut.size(), oracle.size());
    // Slack for rounding in the chord evaluation itself.
    const double bound = medium::PathLossLut(cfg.medium.propagation,
                                             sim::sharded_city_max_range_m(cfg))
                             .max_error_db() +
                         1e-9;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      const auto& a = lut[i];
      const auto& b = oracle[i];
      const double diff = std::bit_cast<double>(a.rssi_bits) -
                          std::bit_cast<double>(b.rssi_bits);
      if (a.time_us != b.time_us || a.tx_id != b.tx_id ||
          a.rx_id != b.rx_id || a.channel != b.channel ||
          !(std::abs(diff) <= bound)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(ShardedCityTest, HandoffBookkeepingBalances) {
  auto cfg = test_city();
  cfg.shards = 4;
  const auto r = sim::run_sharded_city(cfg);
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  for (const auto& s : r.per_shard) {
    in += s.handoffs_in;
    out += s.handoffs_out;
  }
  EXPECT_EQ(in, out);
  EXPECT_EQ(in, r.handoffs);
  EXPECT_EQ(r.epochs, sim::ConservativeBarrier(
                          {sim::sharded_city_epoch(cfg), cfg.duration})
                          .epochs());
}

TEST(ShardedCityTest, RejectsConfigsThatBreakTheDeterminismContract) {
  // Shards must divide the district columns.
  auto cfg = test_city();
  cfg.shards = 3;
  EXPECT_THROW(sim::run_sharded_city(cfg), std::invalid_argument);

  // A gap narrower than twice the radio range cannot isolate the shards.
  cfg = test_city();
  cfg.grid.gap_m = 40.0;
  cfg.ap_tx_dbm = 20.0;  // ~60 m range
  EXPECT_THROW(sim::run_sharded_city(cfg), std::invalid_argument);

  // An explicit epoch longer than the RF-safe lookahead is refused.
  cfg = test_city();
  cfg.epoch = SimTime::seconds(60.0);
  EXPECT_THROW(sim::run_sharded_city(cfg), std::invalid_argument);

  // The same epoch is fine when it respects the bound.
  cfg.epoch = SimTime::seconds(1.0);
  cfg.duration = SimTime::seconds(5.0);
  EXPECT_NO_THROW(sim::run_sharded_city(cfg));

  // The fault model keys its draws by Medium-local radio ids, which each
  // shard assigns in its own attach order: loss would follow the shard
  // count.
  cfg = test_city();
  cfg.medium.fault.enabled = true;
  cfg.medium.fault.seed = 9;
  cfg.medium.fault.ambient_loss = 0.1;
  EXPECT_THROW(sim::run_sharded_city(cfg), std::invalid_argument);
}

TEST(ShardedCityTest, ReportsBarrierWaitPerShard) {
  // Each epoch, every shard is either running or waiting at the barrier,
  // so busy + wait is the same summed epoch wall for every shard, and that
  // never exceeds the run's wall, which also covers the handoffs.
  auto cfg = test_city();
  cfg.shards = 4;
  cfg.keep_deliveries = false;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    cfg.workers = workers;
    const auto r = sim::run_sharded_city(cfg);
    ASSERT_EQ(r.per_shard.size(), 4u);
    const double epoch_walls = r.per_shard[0].busy_s + r.per_shard[0].wait_s;
    EXPECT_GT(epoch_walls, 0.0);
    double busy_sum = 0.0;
    for (const auto& s : r.per_shard) {
      EXPECT_GE(s.wait_s, 0.0);
      EXPECT_NEAR(s.busy_s + s.wait_s, epoch_walls, 1e-9);
      EXPECT_LE(s.busy_s + s.wait_s, r.wall_s);
      busy_sum += s.busy_s;
    }
    // One worker runs the shards one after another inside each epoch.
    if (workers == 1) {
      EXPECT_LE(busy_sum, epoch_walls + 1e-9);
    }
  }
}

TEST(ShardedCityTest, EventBudgetGuardTripsInsteadOfHanging) {
  auto cfg = test_city();
  cfg.duration = SimTime::seconds(30.0);
  cfg.max_sim_events_per_shard = 200;  // far below what 30 s generates
  EXPECT_THROW(sim::run_sharded_city(cfg), medium::RunAbortError);
}

}  // namespace
}  // namespace cityhunter
