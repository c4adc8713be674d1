#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "dot11/serialize.h"
#include "dot11/timing.h"
#include "medium/event_queue.h"
#include "medium/fault.h"
#include "medium/medium.h"
#include "sim/parallel.h"
#include "support/rng.h"

namespace cityhunter {
namespace {

using dot11::MacAddress;
using medium::EventQueue;
using medium::FaultModel;
using medium::FrameSink;
using medium::Medium;
using medium::RxInfo;
using support::Rng;
using support::SimTime;

class Collector : public FrameSink {
 public:
  void on_frame(const dot11::Frame& frame, const RxInfo&) override {
    frames.push_back(frame);
  }
  std::vector<dot11::Frame> frames;
};

// --- FaultModel unit behaviour ---

TEST(FaultModel, PerIsMonotonicInDistance) {
  FaultModel fault(FaultModel::Config{.enabled = true});
  medium::LogDistancePathLoss prop;
  double last = -1.0;
  for (double d = 1.0; d <= 120.0; d += 1.0) {
    const double p = fault.per(prop.rx_power_dbm(20.0, d));
    EXPECT_GE(p, last) << "PER must not decrease with distance, d=" << d;
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    last = p;
  }
  // The curve actually moves: near-field is clean, edge-of-range is lossy.
  EXPECT_LT(fault.per(prop.rx_power_dbm(20.0, 5.0)), 0.01);
  EXPECT_GT(fault.per(prop.rx_power_dbm(20.0, 100.0)), 0.5);
}

TEST(FaultModel, LinkLossCombinesAmbientFloor) {
  FaultModel::Config cfg;
  cfg.enabled = true;
  cfg.ambient_loss = 0.3;
  FaultModel fault(cfg);
  // Even at infinite SNR the ambient floor remains.
  EXPECT_NEAR(fault.link_loss(100.0), 0.3, 1e-6);
  // At terrible SNR the total approaches 1, never exceeding it.
  EXPECT_GT(fault.link_loss(-100.0), 0.99);
  EXPECT_LE(fault.link_loss(-100.0), 1.0);
}

TEST(FaultModel, StreamIsPureFunctionOfKey) {
  FaultModel fault(FaultModel::Config{.enabled = true});
  Rng a = fault.stream(3, 7);
  Rng b = fault.stream(3, 7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.engine()(), b.engine()());
  }
  Rng c = fault.stream(3, 8);
  Rng d = fault.stream(4, 7);
  EXPECT_NE(c.engine()(), d.engine()());
}

TEST(FaultModel, CorruptFlipsBoundedBitCount) {
  FaultModel::Config cfg;
  cfg.enabled = true;
  cfg.max_bit_flips = 3;
  FaultModel fault(cfg);
  Rng rng(1);
  const std::vector<std::uint8_t> original(64, 0x00);
  for (int round = 0; round < 50; ++round) {
    auto wire = original;
    fault.corrupt(wire, rng);
    ASSERT_EQ(wire.size(), original.size());
    int flipped = 0;
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (int b = 0; b < 8; ++b) {
        if (((wire[i] ^ original[i]) >> b) & 1) ++flipped;
      }
    }
    EXPECT_GE(flipped, 1);
    EXPECT_LE(flipped, 3);
  }
}

TEST(FaultModel, BackoffIsBoundedByContentionWindow) {
  FaultModel::Config cfg;
  cfg.enabled = true;
  cfg.cw_min = 15;
  cfg.cw_max = 63;
  cfg.slot_time_us = 20.0;
  FaultModel fault(cfg);
  Rng rng(2);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    for (int i = 0; i < 20; ++i) {
      const SimTime b = fault.backoff(attempt, rng);
      EXPECT_GE(b, SimTime::zero());
      EXPECT_LE(b, SimTime::microseconds(63 * 20));
    }
  }
}

// --- Config validation ---

TEST(FaultConfig, RejectsNonsense) {
  EventQueue events;
  {
    Medium::Config cfg;
    cfg.contention_factor = 0.0;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  {
    Medium::Config cfg;
    cfg.contention_factor = -2.0;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  {
    Medium::Config cfg;
    cfg.mgmt_rate_mbps = 0.0;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  {
    Medium::Config cfg;
    cfg.fault.ambient_loss = 1.5;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  {
    Medium::Config cfg;
    cfg.fault.corruption_rate = -0.1;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  {
    Medium::Config cfg;
    cfg.fault.per_width_db = 0.0;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  {
    Medium::Config cfg;
    cfg.fault.cw_max = 3;
    cfg.fault.cw_min = 7;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  {
    Medium::Config cfg;
    cfg.fault.retry_limit = -1;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  EXPECT_NO_THROW(Medium(events, Medium::Config{}));
}

// --- Lossy medium end to end ---

Medium::Config lossy_config(double ambient, double corruption,
                            int retry_limit = 4) {
  Medium::Config cfg;
  cfg.fault.enabled = true;
  cfg.fault.ambient_loss = ambient;
  cfg.fault.corruption_rate = corruption;
  cfg.fault.retry_limit = retry_limit;
  return cfg;
}

TEST(LossyMedium, ErasuresAreCountedAndConserved) {
  EventQueue events;
  Medium medium(events, lossy_config(0.5, 0.0));
  Rng rng(1);
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  auto b = medium.attach({10, 0}, 6, 15.0, &rx);
  const int sent = 400;
  for (int i = 0; i < sent; ++i) {
    a.transmit(dot11::make_broadcast_probe_request(
        MacAddress::random_local(rng)));
  }
  events.run_until(SimTime::seconds(30.0));
  // At 10 m the SNR PER is negligible; ambient loss halves the deliveries.
  EXPECT_GT(rx.frames.size(), 130u);
  EXPECT_LT(rx.frames.size(), 270u);
  // Every decodable frame was either delivered or counted lost.
  EXPECT_EQ(rx.frames.size() + medium.frames_lost(),
            static_cast<std::uint64_t>(sent));
  EXPECT_EQ(b.frames_received(), rx.frames.size());
  EXPECT_EQ(b.frames_lost(), medium.frames_lost());
  EXPECT_EQ(medium.frames_corrupted(), 0u);
  EXPECT_EQ(medium.retries(), 0u);
}

TEST(LossyMedium, SnrLossGrowsWithDistance) {
  // Same traffic, receiver near vs at the edge of range: the far receiver
  // must lose a strictly larger share (PER monotonicity through the whole
  // delivery path, not just the curve).
  auto lost_at = [](double distance) {
    EventQueue events;
    Medium medium(events, lossy_config(0.0, 0.0));
    Rng rng(1);
    Collector rx;
    auto a = medium.attach({0, 0}, 6, 20.0);
    medium.attach({distance, 0}, 6, 15.0, &rx);
    for (int i = 0; i < 300; ++i) {
      a.transmit(dot11::make_broadcast_probe_request(
          MacAddress::random_local(rng)));
    }
    events.run_until(SimTime::seconds(30.0));
    return medium.frames_lost();
  };
  const auto near = lost_at(10.0);
  const auto mid = lost_at(45.0);
  const auto far = lost_at(58.0);
  EXPECT_LE(near, mid);
  EXPECT_LT(mid, far);
}

TEST(LossyMedium, RetriesRepairAmbientCollisionsOnUnicast) {
  // 802.11 semantics: a collision at the receiver means no ACK, which
  // triggers the retransmission — so ambient loss on unicast frames is
  // largely repaired by the retry budget (at airtime cost), while a
  // retry-less configuration eats it raw.
  auto lost_with_retries = [](int retry_limit) {
    EventQueue events;
    Medium medium(events, lossy_config(0.5, 0.0, retry_limit));
    Rng rng(1);
    Collector rx;
    auto a = medium.attach({0, 0}, 6, 20.0);
    medium.attach({10, 0}, 6, 15.0, &rx);
    const auto client = MacAddress::random_local(rng);
    for (int i = 0; i < 200; ++i) {
      a.transmit(dot11::make_probe_response(MacAddress::random_local(rng),
                                            client, "SSID", 6, true));
    }
    events.run_until(SimTime::seconds(120.0));
    return std::tuple{medium.frames_lost(), medium.retries(),
                      rx.frames.size()};
  };
  const auto [lost_raw, retries_raw, rx_raw] = lost_with_retries(0);
  const auto [lost_rep, retries_rep, rx_rep] = lost_with_retries(4);
  EXPECT_EQ(retries_raw, 0u);
  EXPECT_GT(retries_rep, 50u);
  // Residual loss after 4 retries at p=0.5 is 0.5^5 ~ 3%; raw is ~50%.
  EXPECT_GT(lost_raw, 60u);
  EXPECT_LT(lost_rep, 20u);
  EXPECT_GT(rx_rep, rx_raw);
}

TEST(LossyMedium, RetryBudgetExhaustion) {
  // corruption_rate = 1: every attempt is corrupted, so a unicast frame
  // burns its full retry budget and still arrives too damaged to parse.
  EventQueue events;
  Medium medium(events, lossy_config(0.0, 1.0, /*retry_limit=*/3));
  Rng rng(1);
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  medium.attach({10, 0}, 6, 15.0, &rx);
  a.transmit(dot11::make_probe_response(MacAddress::random_local(rng),
                                        MacAddress::random_local(rng),
                                        "CoffeeShop", 6, true));
  events.run_until(SimTime::seconds(5.0));
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_EQ(medium.retries(), 3u);
  EXPECT_EQ(a.tx_retries(), 3u);
  EXPECT_EQ(medium.frames_corrupted(), 1u);
  EXPECT_EQ(medium.frames_lost(), 0u);  // killed at TX, not on the link
  EXPECT_EQ(a.frames_sent(), 1u);       // one logical frame
}

TEST(LossyMedium, RetriesConsumeAirtime) {
  // With corruption_rate = 1 and 3 retries, the radio holds the air for at
  // least 4 frame airtimes — loss now interacts with the scan budget.
  EventQueue events;
  Medium medium(events, lossy_config(0.0, 1.0, /*retry_limit=*/3));
  Rng rng(1);
  auto a = medium.attach({0, 0}, 6, 20.0);
  const auto frame = dot11::make_probe_response(
      MacAddress::random_local(rng), MacAddress::random_local(rng), "X", 6,
      true);
  const SimTime air =
      dot11::airtime(dot11::wire_size(frame), medium.config().mgmt_rate_mbps) *
      medium.config().contention_factor;
  a.transmit(frame);
  a.transmit(frame);  // queued behind the whole retry train
  events.run_until(air * 3.9);
  EXPECT_EQ(a.frames_sent(), 0u);  // first train still occupying the air
  events.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(a.frames_sent(), 2u);
}

TEST(LossyMedium, BroadcastFramesAreNeverRetried) {
  EventQueue events;
  Medium medium(events, lossy_config(0.0, 1.0, /*retry_limit=*/7));
  Rng rng(1);
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  medium.attach({10, 0}, 6, 15.0, &rx);
  for (int i = 0; i < 5; ++i) {
    a.transmit(dot11::make_broadcast_probe_request(
        MacAddress::random_local(rng)));
  }
  events.run_until(SimTime::seconds(5.0));
  EXPECT_TRUE(rx.frames.empty());  // all corrupted, FCS rejects
  EXPECT_EQ(medium.retries(), 0u);
  EXPECT_EQ(medium.frames_corrupted(), 5u);
}

TEST(LossyMedium, DisabledFaultModelIsPerfectChannel) {
  EventQueue events;
  Medium medium(events);  // default config: fault off
  Rng rng(1);
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  medium.attach({10, 0}, 6, 15.0, &rx);
  for (int i = 0; i < 100; ++i) {
    a.transmit(dot11::make_broadcast_probe_request(
        MacAddress::random_local(rng)));
  }
  events.run_until(SimTime::seconds(30.0));
  EXPECT_EQ(rx.frames.size(), 100u);
  EXPECT_EQ(medium.frames_lost(), 0u);
  EXPECT_EQ(medium.frames_corrupted(), 0u);
  EXPECT_EQ(medium.retries(), 0u);
}

TEST(LossyMedium, IdenticalRunsAreBitIdentical) {
  auto run_once = [] {
    EventQueue events;
    Medium medium(events, lossy_config(0.2, 0.1));
    Rng rng(7);
    Collector rx;
    auto a = medium.attach({0, 0}, 6, 20.0);
    medium.attach({40, 0}, 6, 15.0, &rx);
    for (int i = 0; i < 200; ++i) {
      a.transmit(dot11::make_probe_response(MacAddress::random_local(rng),
                                            MacAddress::random_local(rng),
                                            "SSID", 6, true));
    }
    events.run_until(SimTime::seconds(60.0));
    return std::tuple{rx.frames.size(), medium.frames_lost(),
                      medium.frames_corrupted(), medium.retries()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(LossyMedium, LinkDrawsDoNotDependOnBystanders) {
  // Receivers A < B < C hear the same lossy broadcasts. Detaching B, or
  // moving it out of range, must leave A's and C's erasure outcomes frame
  // for frame unchanged: each link's draw is keyed by the receiver, not by
  // its rank in the fanout. Both delivery paths are held to it.
  enum class Bystander { kInRange, kDetached, kOutOfRange };
  const auto outcomes = [](Bystander b_mode, bool grid) {
    Medium::Config cfg = lossy_config(0.4, 0.0);
    cfg.spatial_grid = grid;
    EventQueue events;
    Medium medium(events, cfg);
    Rng rng(3);
    Collector ra, rb, rc;
    auto tx = medium.attach({0, 0}, 6, 20.0);
    auto a = medium.attach({10, 0}, 6, 15.0, &ra);
    auto b = medium.attach({12, 0}, 6, 15.0, &rb);
    auto c = medium.attach({14, 0}, 6, 15.0, &rc);
    if (b_mode == Bystander::kDetached) medium.detach(b);
    if (b_mode == Bystander::kOutOfRange) b.set_position({5000, 0});
    std::vector<std::pair<bool, bool>> heard;  // (A, C) per frame
    for (int i = 0; i < 200; ++i) {
      const std::size_t a0 = ra.frames.size();
      const std::size_t c0 = rc.frames.size();
      tx.transmit(dot11::make_broadcast_probe_request(
          MacAddress::random_local(rng)));
      events.run_all();
      heard.emplace_back(ra.frames.size() > a0, rc.frames.size() > c0);
    }
    EXPECT_GT(a.frames_lost(), 0u);
    EXPECT_GT(c.frames_lost(), 0u);
    return heard;
  };
  for (const bool grid : {true, false}) {
    SCOPED_TRACE(grid ? "grid" : "scan");
    const auto with_b = outcomes(Bystander::kInRange, grid);
    EXPECT_EQ(outcomes(Bystander::kDetached, grid), with_b);
    EXPECT_EQ(outcomes(Bystander::kOutOfRange, grid), with_b);
  }
}

// --- Lossy campaigns across thread counts ---

sim::ScenarioConfig small_scenario() {
  sim::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.aps.residential_ap_count = 800;
  cfg.aps.small_venue_count = 400;
  cfg.aps.enterprise_ap_count = 150;
  cfg.photos.photo_count = 8000;
  return cfg;
}

std::vector<sim::RunConfig> lossy_runs(const sim::World& world) {
  const sim::AttackerKind kinds[] = {sim::AttackerKind::kMana,
                                     sim::AttackerKind::kCityHunter};
  std::vector<sim::RunConfig> runs;
  for (int i = 0; i < 6; ++i) {
    sim::RunConfig run;
    run.kind = kinds[i % 2];
    run.venue = (i % 2 == 0) ? mobility::canteen_venue()
                             : mobility::subway_passage_venue();
    run.slot.expected_clients = 60 + 20 * i;
    run.duration = support::SimTime::minutes(4);
    run.run_seed = static_cast<std::uint64_t>(i + 1);
    medium::Medium::Config medium_cfg = world.config().medium;
    medium_cfg.fault.enabled = true;
    medium_cfg.fault.ambient_loss = 0.15;
    medium_cfg.fault.corruption_rate = 0.05;
    run.medium = medium_cfg;
    runs.push_back(std::move(run));
  }
  return runs;
}

void expect_identical(const sim::RunOutput& a, const sim::RunOutput& b) {
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.db_final_size, b.db_final_size);
  EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.medium_stats, b.medium_stats);
  EXPECT_EQ(a.error, b.error);
}

TEST(LossyCampaigns, BitIdenticalAtAnyThreadCount) {
  sim::World world(small_scenario());
  const auto runs = lossy_runs(world);

  std::vector<sim::RunOutput> serial;
  for (const auto& run : runs) {
    serial.push_back(sim::run_campaign(world, run));
  }
  // A lossy run actually loses frames (the fault path is exercised)...
  std::uint64_t lost = 0;
  for (const auto& out : serial) lost += out.medium_stats.frames_lost;
  EXPECT_GT(lost, 0u);

  // ...and 1/2/4 worker threads reproduce the serial results bit for bit.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const auto parallel =
        sim::run_campaigns(world, runs, sim::ParallelConfig{threads});
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " run="
                                      << i);
      expect_identical(serial[i], parallel[i]);
    }
  }
}

TEST(LossyCampaigns, LossReducesDeliveriesVersusPerfectChannel) {
  sim::World world(small_scenario());
  sim::RunConfig perfect;
  perfect.kind = sim::AttackerKind::kCityHunter;
  perfect.slot.expected_clients = 120;
  perfect.duration = support::SimTime::minutes(4);
  perfect.run_seed = 3;

  sim::RunConfig lossy = perfect;
  medium::Medium::Config medium_cfg = world.config().medium;
  medium_cfg.fault.enabled = true;
  medium_cfg.fault.ambient_loss = 0.4;
  lossy.medium = medium_cfg;

  const auto clean_out = sim::run_campaign(world, perfect);
  const auto lossy_out = sim::run_campaign(world, lossy);
  EXPECT_EQ(clean_out.medium_stats.frames_lost, 0u);
  EXPECT_GT(lossy_out.medium_stats.frames_lost, 0u);
  // Broadcast traffic eats the 40% ambient floor per receiver; unicast
  // traffic mostly survives via retries and is overheard by every radio in
  // range at near-zero SNR loss, so the aggregate rate sits far below the
  // ambient floor while the absolute counts stay visibly non-zero.
  EXPECT_GT(lossy_out.medium_stats.loss_rate(), 0.005);
  EXPECT_LT(lossy_out.medium_stats.loss_rate(), 0.55);
  EXPECT_GT(lossy_out.medium_stats.retries, 0u);
}

}  // namespace
}  // namespace cityhunter
