#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "dot11/serialize.h"
#include "dot11/timing.h"
#include "medium/event_queue.h"
#include "medium/fault.h"
#include "medium/medium.h"
#include "sim/parallel.h"
#include "small_world.h"
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

TEST(FaultModel, TxDrawsArePureFunctionsOfTheirKey) {
  using D = FaultModel::TxDecision;
  const D decisions[] = {D::kCollision, D::kCorruption, D::kBackoff,
                         D::kFlipCount, D::kFlipBit};
  const FaultModel fault(FaultModel::Config{.enabled = true});
  const FaultModel::TxKey key = fault.tx_key(3, 7);
  EXPECT_EQ(fault.tx_key(3, 7), key);
  // Another tx radio, sequence or seed gives another key.
  EXPECT_NE(fault.tx_key(4, 7), key);
  EXPECT_NE(fault.tx_key(3, 8), key);
  EXPECT_NE(FaultModel(FaultModel::Config{.enabled = true, .seed = 1})
                .tx_key(3, 7),
            key);
  std::set<std::uint64_t> seen;
  for (const D d : decisions) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      const std::uint64_t draw = FaultModel::tx_draw(key, d, i);
      EXPECT_EQ(FaultModel::tx_draw(fault.tx_key(3, 7), d, i), draw);
      EXPECT_NE(FaultModel::tx_draw(fault.tx_key(4, 7), d, i), draw);
      EXPECT_NE(FaultModel::tx_draw(fault.tx_key(3, 8), d, i), draw);
      // Every (decision, attempt or index) pair draws its own value.
      EXPECT_TRUE(seen.insert(draw).second);
    }
  }
}

TEST(FaultModel, NoTxDrawIsALinkDraw) {
  // A TX decision must not reuse any receiver's erasure draw: no TX draw's
  // top 53 bits equal a link draw of the same transmission for receiver
  // ids 0 .. 2^16 - 1 (a Medium hands out ids from 1 up).
  using D = FaultModel::TxDecision;
  const FaultModel fault(FaultModel::Config{.enabled = true});
  for (const auto& [tx, seq] :
       {std::pair<std::uint64_t, std::uint64_t>{3, 7}, {1, 0}, {2, 1}}) {
    std::vector<double> links;
    for (std::uint64_t rx = 0; rx < (1u << 16); ++rx) {
      links.push_back(fault.link_draw(tx, seq, rx));
    }
    std::sort(links.begin(), links.end());
    const FaultModel::TxKey key = fault.tx_key(tx, seq);
    for (const D d : {D::kCollision, D::kCorruption, D::kBackoff,
                      D::kFlipCount, D::kFlipBit}) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        const double u =
            static_cast<double>(FaultModel::tx_draw(key, d, i) >> 11) *
            0x1.0p-53;
        EXPECT_FALSE(std::binary_search(links.begin(), links.end(), u))
            << tx << " " << seq << " " << i;
      }
    }
  }
}

TEST(FaultModel, PinnedDraws) {
  // The default config's first draws for tx radio 3, frame 7. The link
  // draws were recorded before the TX draws became keyed and are unchanged.
  const FaultModel fault{};
  const double links[] = {0.42913803435286857, 0.086306453359641933,
                          0.091904719062890439, 0.12610461944724471};
  for (std::uint64_t rx = 1; rx <= 4; ++rx) {
    EXPECT_EQ(fault.link_draw(3, 7, rx), links[rx - 1]) << rx;
  }
  using D = FaultModel::TxDecision;
  const FaultModel::TxKey key = fault.tx_key(3, 7);
  EXPECT_EQ(key.word, 0x8d1dac135af36214ULL);
  EXPECT_EQ(FaultModel::tx_draw(key, D::kCollision, 0), 0x05fd68bd07e8fcfcULL);
  EXPECT_EQ(FaultModel::tx_draw(key, D::kCollision, 1), 0x0f8fe966b96b0d14ULL);
  EXPECT_EQ(FaultModel::tx_draw(key, D::kCorruption, 0),
            0xc7cfe55eb19f979cULL);
  EXPECT_EQ(FaultModel::tx_draw(key, D::kBackoff, 1), 0x1e49978a44ffd800ULL);
  EXPECT_EQ(FaultModel::tx_draw(key, D::kFlipCount, 0),
            0xd6b1fb7385fd3b9eULL);
  EXPECT_EQ(FaultModel::tx_draw(key, D::kFlipBit, 1), 0x559a116aaac962fbULL);
}

TEST(FaultModel, TxDecisionsHitTheirConfiguredRates) {
  // Over 10^5 keys the collision and corruption shares fall within 4 sigma
  // of their rates, and backoff reaches both ends of [0, cw].
  FaultModel::Config cfg;
  cfg.enabled = true;
  cfg.ambient_loss = 0.2;
  cfg.corruption_rate = 0.08;
  cfg.cw_min = 15;
  cfg.cw_max = 1023;
  cfg.slot_time_us = 1.0;
  const FaultModel fault(cfg);
  constexpr int kKeys = 100000;
  int collided = 0;
  int corrupted = 0;
  std::vector<int> slots(32, 0);  // retry 1: cw = 31
  for (int i = 0; i < kKeys; ++i) {
    const auto key = fault.tx_key(static_cast<std::uint64_t>(i % 97 + 1),
                                  static_cast<std::uint64_t>(i));
    collided += fault.collides(key, 0) ? 1 : 0;
    corrupted += fault.corrupts(key, 0) ? 1 : 0;
    const std::int64_t s = fault.backoff(key, 1).us();
    ASSERT_GE(s, 0);
    ASSERT_LE(s, 31);
    ++slots[static_cast<std::size_t>(s)];
  }
  const auto within_4_sigma = [](int hits, double p) {
    const double sigma = std::sqrt(kKeys * p * (1.0 - p));
    return std::abs(hits - kKeys * p) < 4.0 * sigma;
  };
  EXPECT_TRUE(within_4_sigma(collided, cfg.ambient_loss)) << collided;
  EXPECT_TRUE(within_4_sigma(corrupted, cfg.corruption_rate)) << corrupted;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    EXPECT_GT(slots[s], 0) << "slot " << s << " never drawn";
  }
  // Retries 6+ are capped at cw_max: 1023 itself is reachable.
  bool hit_max = false;
  for (int i = 0; i < kKeys && !hit_max; ++i) {
    hit_max = fault.backoff(fault.tx_key(1, static_cast<std::uint64_t>(i)),
                            8)
                  .us() == 1023;
  }
  EXPECT_TRUE(hit_max);
}

TEST(FaultModel, CorruptFlipsBoundedBitCount) {
  FaultModel::Config cfg;
  cfg.enabled = true;
  cfg.max_bit_flips = 3;
  FaultModel fault(cfg);
  const std::vector<std::uint8_t> original(64, 0x00);
  for (std::uint64_t round = 0; round < 50; ++round) {
    auto wire = original;
    fault.corrupt(wire, fault.tx_key(1, round));
    ASSERT_EQ(wire.size(), original.size());
    int flipped = 0;
    for (std::size_t i = 0; i < wire.size(); ++i) {
      flipped += std::popcount(static_cast<unsigned>(wire[i] ^ original[i]));
    }
    EXPECT_GE(flipped, 1);
    EXPECT_LE(flipped, 3);
  }
}

TEST(FaultModel, CorruptFlipsDistinctBitsOnATinyWire) {
  // On a one- and a two-byte wire a repeated position is likely: each
  // corrupted buffer must still differ in exactly the drawn count of bits,
  // and the count must cover 1..min(max_bit_flips, wire bits).
  FaultModel::Config cfg;
  cfg.enabled = true;
  cfg.max_bit_flips = 12;
  const FaultModel fault(cfg);
  for (const std::size_t bytes : {std::size_t{1}, std::size_t{2}}) {
    const int cap = std::min(cfg.max_bit_flips, static_cast<int>(bytes * 8));
    std::vector<int> counts(static_cast<std::size_t>(cap) + 1, 0);
    for (std::uint64_t seq = 0; seq < 2000; ++seq) {
      std::vector<std::uint8_t> wire(bytes, 0xA5);
      const int drawn = fault.corrupt(wire, fault.tx_key(9, seq));
      ASSERT_GE(drawn, 1);
      ASSERT_LE(drawn, cap);
      int flipped = 0;
      for (const std::uint8_t b : wire) {
        flipped += std::popcount(static_cast<unsigned>(b ^ 0xA5));
      }
      ASSERT_EQ(flipped, drawn) << bytes << " bytes, seq " << seq;
      ++counts[static_cast<std::size_t>(drawn)];
    }
    for (int n = 1; n <= cap; ++n) {
      EXPECT_GT(counts[static_cast<std::size_t>(n)], 0) << n << " flips";
    }
  }
  std::vector<std::uint8_t> empty;
  EXPECT_EQ(fault.corrupt(empty, fault.tx_key(9, 0)), 0);
}

TEST(FaultModel, BackoffIsBoundedByContentionWindow) {
  FaultModel::Config cfg;
  cfg.enabled = true;
  cfg.cw_min = 15;
  cfg.cw_max = 63;
  cfg.slot_time_us = 20.0;
  FaultModel fault(cfg);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      const SimTime b = fault.backoff(fault.tx_key(2, i), attempt);
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
  // A NaN floor or midpoint would make per() NaN, and no link would ever
  // be erased by SNR.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(bad);
    Medium::Config floor;
    floor.fault.noise_floor_dbm = bad;
    EXPECT_THROW(Medium(events, floor), std::invalid_argument);
    Medium::Config mid;
    mid.fault.per_snr_mid_db = bad;
    EXPECT_THROW(Medium(events, mid), std::invalid_argument);
  }
  {
    Medium::Config cfg;
    cfg.fault.per_width_db = HUGE_VAL;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  {
    Medium::Config cfg;
    cfg.fault.slot_time_us = HUGE_VAL;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  // Infinite or huge scale factors, or a vanishing rate: one airtime or
  // backoff would overflow SimTime's int64 microseconds.
  for (const double bad : {HUGE_VAL, 1e300}) {
    SCOPED_TRACE(bad);
    Medium::Config cfg;
    cfg.contention_factor = bad;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  for (const double bad : {1e-300, HUGE_VAL}) {
    SCOPED_TRACE(bad);
    Medium::Config cfg;
    cfg.mgmt_rate_mbps = bad;
    EXPECT_THROW(Medium(events, cfg), std::invalid_argument);
  }
  {
    Medium::Config cfg;
    cfg.fault.slot_time_us = 1e300;
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
  sim::World world(small_scenario(11));
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
  sim::World world(small_scenario(11));
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
