#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dot11/serialize.h"
#include "dot11/timing.h"
#include "medium/event_queue.h"
#include "medium/medium.h"
#include "medium/propagation.h"
#include "support/rng.h"

namespace cityhunter::medium {
namespace {

using dot11::MacAddress;
using support::Rng;
using support::SimTime;

// --- EventQueue ---

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.post_at(SimTime::seconds(3.0), [&] { order.push_back(3); });
  q.post_at(SimTime::seconds(1.0), [&] { order.push_back(1); });
  q.post_at(SimTime::seconds(2.0), [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), SimTime::seconds(3.0));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.post_at(SimTime::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RunUntilAdvancesClockEvenWhenEmpty) {
  EventQueue q;
  q.run_until(SimTime::minutes(5.0));
  EXPECT_EQ(q.now(), SimTime::minutes(5.0));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.post_at(SimTime::seconds(1.0), [&] { ++fired; });
  q.post_at(SimTime::seconds(10.0), [&] { ++fired; });
  q.run_until(SimTime::seconds(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.post_in(SimTime::seconds(1.0), recurse);
  };
  q.post_in(SimTime::seconds(1.0), recurse);
  q.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), SimTime::seconds(5.0));
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.post_at(SimTime::seconds(2.0), [] {});
  q.run_until(SimTime::seconds(3.0));
  EXPECT_THROW(q.post_at(SimTime::seconds(1.0), [] {}),
               std::invalid_argument);
}

TEST(EventQueue, PastSchedulingErrorNamesBothTimes) {
  EventQueue q;
  q.run_until(SimTime::seconds(3.0));
  try {
    q.post_at(SimTime::seconds(1.0), [] {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("now="), std::string::npos) << what;
    EXPECT_NE(what.find("requested="), std::string::npos) << what;
    EXPECT_NE(what.find(SimTime::seconds(3.0).str()), std::string::npos)
        << what;
    EXPECT_NE(what.find(SimTime::seconds(1.0).str()), std::string::npos)
        << what;
  }
}

TEST(EventQueue, RunUntilNeverRewindsTheClock) {
  // Running until a time before now() would set the clock back: an event
  // then posted for 6 s would run after one that already ran at 10 s. The
  // call is refused like a past post_at, and the clock stays where it was.
  EventQueue q;
  std::vector<int> order;
  q.post_at(SimTime::seconds(10.0), [&] { order.push_back(10); });
  q.run_until(SimTime::seconds(20.0));
  EXPECT_THROW(q.run_until(SimTime::seconds(5.0)), PastScheduleError);
  EXPECT_EQ(q.now(), SimTime::seconds(20.0));
  EXPECT_THROW(q.post_at(SimTime::seconds(6.0), [&] { order.push_back(6); }),
               PastScheduleError);
  q.run_until(SimTime::seconds(20.0));  // running until now() is a no-op
  EXPECT_EQ(order, (std::vector<int>{10}));
  EXPECT_EQ(q.now(), SimTime::seconds(20.0));
}

// A queue kept as a sorted map of (time, seq) with the same slab free list
// as EventQueue: the pop order and Stats any correct heap must reproduce.
class ReferenceQueue {
 public:
  SimTime now() const { return now_; }

  void post_at(SimTime t, std::function<void()> fn) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      ++stats_.slab_reuses;
    } else {
      slot = slots_++;
      stats_.slab_slots = slots_;
    }
    pending_.emplace(std::pair{t.us(), next_seq_++},
                     Pending{slot, std::move(fn)});
    ++stats_.scheduled;
    stats_.peak_pending =
        std::max<std::uint64_t>(stats_.peak_pending, pending_.size());
  }

  bool step() {
    if (pending_.empty()) return false;
    auto node = pending_.extract(pending_.begin());
    now_ = SimTime::microseconds(node.key().first);
    free_.push_back(node.mapped().slot);
    ++stats_.processed;
    node.mapped().fn();
    return true;
  }

  const EventQueue::Stats& stats() const { return stats_; }

 private:
  struct Pending {
    std::uint32_t slot;
    std::function<void()> fn;
  };
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint32_t slots_ = 0;
  std::vector<std::uint32_t> free_;
  std::map<std::pair<std::int64_t, std::uint64_t>, Pending> pending_;
  EventQueue::Stats stats_;
};

// Random posts with few distinct delays (so many same-time ties), from the
// top level and from inside firing events. Labels follow post order, so
// they are the queue's sequence numbers; each firing logs (time, label).
// A firing posts 0.8 events on average, so the final drain ends, and the
// top level adds about two more than it pops per round, so the queue grows
// a few thousand deep.
template <typename Queue>
struct HeapWorkload {
  Queue q;
  Rng rng{2024};
  std::uint64_t next_label = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> log;

  void post() {
    const auto delay =
        SimTime::microseconds(static_cast<std::int64_t>(rng.index(6)) * 100);
    q.post_at(q.now() + delay, [this, label = next_label++] {
      log.emplace_back(q.now().us(), label);
      for (std::size_t k = rng.index(5) / 2; k > 0; --k) post();
    });
  }

  void run(std::size_t events) {
    while (log.size() < events) {
      for (std::size_t k = rng.index(24); k > 0; --k) post();
      for (std::size_t k = rng.index(96); k > 0 && q.step(); --k) {
      }
    }
    while (q.step()) {
    }
  }
};

TEST(EventQueue, PopsInTimeSeqOrderWithReferenceStats) {
  constexpr std::size_t kEvents = 100'000;
  // Everything posted first: the pops are the posts sorted by (time, seq).
  {
    EventQueue q;
    Rng rng(7);
    std::vector<std::pair<std::int64_t, std::uint64_t>> posted, popped;
    for (std::uint64_t seq = 0; seq < kEvents; ++seq) {
      const std::int64_t t = static_cast<std::int64_t>(rng.index(1000));
      posted.emplace_back(t, seq);
      q.post_at(SimTime::microseconds(t), [&popped, &q, seq] {
        popped.emplace_back(q.now().us(), seq);
      });
    }
    q.run_all();
    std::sort(posted.begin(), posted.end());
    EXPECT_EQ(popped, posted);
    EXPECT_EQ(q.stats(), (EventQueue::Stats{kEvents, kEvents, kEvents,
                                             kEvents, 0}));
  }
  // Posts and pops interleaved, the queue ten to a few thousand deep: every
  // pop is the least pending (time, seq), so the log is strictly ascending,
  // and the slab counters match the reference queue's.
  HeapWorkload<EventQueue> heap;
  HeapWorkload<ReferenceQueue> reference;
  heap.run(kEvents);
  reference.run(kEvents);
  ASSERT_GE(heap.log.size(), kEvents);
  EXPECT_EQ(heap.log.size(), heap.next_label);
  EXPECT_TRUE(std::adjacent_find(heap.log.begin(), heap.log.end(),
                                 [](const auto& a, const auto& b) {
                                   return !(a < b);
                                 }) == heap.log.end());
  EXPECT_EQ(heap.log, reference.log);
  EXPECT_EQ(heap.q.stats(), reference.q.stats());
  EXPECT_GT(heap.q.stats().peak_pending, 1000u);
  EXPECT_GT(heap.q.stats().slab_reuses, kEvents / 2);
}

// --- Propagation ---

TEST(Propagation, PowerDecreasesWithDistance) {
  LogDistancePathLoss model;
  const double p10 = model.rx_power_dbm(20.0, 10.0);
  const double p50 = model.rx_power_dbm(20.0, 50.0);
  EXPECT_GT(p10, p50);
}

TEST(Propagation, ClampInsideReferenceDistance) {
  LogDistancePathLoss model;
  EXPECT_DOUBLE_EQ(model.rx_power_dbm(20.0, 0.1),
                   model.rx_power_dbm(20.0, 1.0));
}

TEST(Propagation, MaxRangeConsistentWithDeliverable) {
  LogDistancePathLoss model;
  const double r = model.max_range(20.0);
  EXPECT_TRUE(model.deliverable(20.0, r * 0.99));
  EXPECT_FALSE(model.deliverable(20.0, r * 1.01));
}

TEST(Propagation, DefaultRangeMatchesRaspberryPiScale) {
  LogDistancePathLoss model;
  const double r = model.max_range(20.0);  // 100 mW attacker
  EXPECT_GT(r, 40.0);
  EXPECT_LT(r, 90.0);
}

TEST(Propagation, DbmConversion) {
  EXPECT_DOUBLE_EQ(dbm_from_milliwatts(100.0), 20.0);
  EXPECT_DOUBLE_EQ(dbm_from_milliwatts(1.0), 0.0);
}

// --- Medium ---

class Collector : public FrameSink {
 public:
  void on_frame(const dot11::Frame& frame, const RxInfo& info) override {
    frames.push_back(frame);
    infos.push_back(info);
  }
  std::vector<dot11::Frame> frames;
  std::vector<RxInfo> infos;
};

class MediumTest : public ::testing::Test {
 protected:
  EventQueue events;
  Medium medium{events};
  Rng rng{1};
};

TEST_F(MediumTest, DeliversWithinRange) {
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  auto b = medium.attach({30, 0}, 6, 15.0, &rx);
  a.transmit(dot11::make_broadcast_probe_request(
      MacAddress::random_local(rng)));
  events.run_until(SimTime::seconds(1.0));
  ASSERT_EQ(rx.frames.size(), 1u);
  EXPECT_EQ(rx.frames[0].subtype(), dot11::MgmtSubtype::kProbeRequest);
  EXPECT_LT(rx.infos[0].rssi_dbm, -30.0);
  (void)b;

  // A unicast frame reaches only the radio registered under its addr1,
  // plus monitors (radios without an address) in range; a broadcast still
  // reaches everyone. Both pipelines agree.
  const MacAddress to({0x02, 0, 0, 0, 0, 0x01});
  const MacAddress other({0x02, 0, 0, 0, 0, 0x02});
  for (const bool grid : {true, false}) {
    Medium::Config cfg;
    cfg.spatial_grid = grid;
    EventQueue q;
    Medium m(q, cfg);
    Collector addressee, bystander, monitor;
    auto ap = m.attach({0, 0}, 6, 20.0);
    m.attach({10, 0}, 6, 15.0, &addressee).set_rx_address(to);
    m.attach({12, 0}, 6, 15.0, &bystander).set_rx_address(other);
    m.attach({14, 0}, 6, 15.0, &monitor);
    ap.transmit(dot11::make_probe_response(other, to, "U", 6, true));
    q.run_all();
    EXPECT_EQ(addressee.frames.size(), 1u) << "grid " << grid;
    EXPECT_TRUE(bystander.frames.empty()) << "grid " << grid;
    EXPECT_EQ(monitor.frames.size(), 1u) << "grid " << grid;
    EXPECT_EQ(m.deliveries(), 2u) << "grid " << grid;
    ap.transmit(dot11::make_broadcast_probe_request(other));
    q.run_all();
    EXPECT_EQ(addressee.frames.size(), 2u) << "grid " << grid;
    EXPECT_EQ(bystander.frames.size(), 1u) << "grid " << grid;
    EXPECT_EQ(monitor.frames.size(), 2u) << "grid " << grid;
  }

  // Radios sharing an address each receive, in radio-id order with the
  // monitors, whatever order they registered in.
  struct Tagged : FrameSink {
    Tagged(std::vector<int>* o, int t) : order(o), tag(t) {}
    std::vector<int>* order;
    int tag;
    void on_frame(const dot11::Frame&, const RxInfo&) override {
      order->push_back(tag);
    }
  };
  for (const bool grid : {true, false}) {
    Medium::Config cfg;
    cfg.spatial_grid = grid;
    EventQueue q;
    Medium m(q, cfg);
    std::vector<int> order;
    Tagged first(&order, 1), middle(&order, 2), last(&order, 3);
    auto ap = m.attach({0, 0}, 6, 20.0);
    auto low = m.attach({10, 0}, 6, 15.0, &first);
    m.attach({12, 0}, 6, 15.0, &middle);  // monitor
    auto high = m.attach({14, 0}, 6, 15.0, &last);
    high.set_rx_address(to);
    low.set_rx_address(to);
    ap.transmit(dot11::make_probe_response(other, to, "U", 6, true));
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3})) << "grid " << grid;
  }

  // A TX-power change takes effect on the next frame: RSSI follows the new
  // power exactly, and after a raise above every attach power (20 dBm,
  // ~60 m range), which regrows the grid's cells, a receiver beyond the
  // old range hears the frame.
  for (const bool grid : {true, false}) {
    Medium::Config cfg;
    cfg.spatial_grid = grid;
    cfg.pathloss_lut = false;
    EventQueue q;
    Medium m(q, cfg);
    Collector near, far;
    auto ap = m.attach({0, 0}, 6, 20.0);
    m.attach({25, 0}, 6, 15.0, &near);
    m.attach({66, 0}, 6, 15.0, &far);
    const auto probe =
        dot11::make_broadcast_probe_request(MacAddress::random_local(rng));
    ap.set_tx_power_dbm(17.0);
    ap.transmit(probe);
    q.run_all();
    ASSERT_EQ(near.infos.size(), 1u) << "grid " << grid;
    EXPECT_EQ(near.infos[0].rssi_dbm, m.propagation().rx_power_dbm(17.0, 25.0))
        << "grid " << grid;
    EXPECT_TRUE(far.infos.empty()) << "grid " << grid;
    ap.set_tx_power_dbm(23.0);
    ap.transmit(probe);
    q.run_all();
    ASSERT_EQ(near.infos.size(), 2u) << "grid " << grid;
    EXPECT_EQ(near.infos[1].rssi_dbm, m.propagation().rx_power_dbm(23.0, 25.0))
        << "grid " << grid;
    ASSERT_EQ(far.infos.size(), 1u) << "grid " << grid;
    EXPECT_EQ(far.infos[0].rssi_dbm, m.propagation().rx_power_dbm(23.0, 66.0))
        << "grid " << grid;
  }
}

TEST_F(MediumTest, DropsBeyondRange) {
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  medium.attach({5000, 0}, 6, 15.0, &rx);
  a.transmit(dot11::make_broadcast_probe_request(
      MacAddress::random_local(rng)));
  events.run_until(SimTime::seconds(1.0));
  EXPECT_TRUE(rx.frames.empty());

  // A negative link budget (TX power below reference loss + sensitivity)
  // reaches nobody, not even a receiver inside the 1 m reference clamp: the
  // grid pipeline's range² of -1 rejects every d², like the scan oracle's
  // exact deliverable() test.
  for (const bool grid : {true, false}) {
    Medium::Config cfg;
    cfg.spatial_grid = grid;
    EventQueue q;
    Medium m(q, cfg);
    Collector near;
    auto weak = m.attach({0, 0}, 6, -50.0);
    m.attach({0.5, 0}, 6, 15.0, &near);
    m.attach({0, 0.5}, 6, 20.0, &near);
    weak.transmit(dot11::make_broadcast_probe_request(
        MacAddress::random_local(rng)));
    q.run_all();
    EXPECT_TRUE(near.frames.empty()) << "grid " << grid;
    EXPECT_EQ(m.deliveries(), 0u) << "grid " << grid;
  }

  // An addressee that is off channel, sinkless or out of range hears
  // nothing, and neither does anyone else: bystanders holding another
  // address never see the frame.
  const MacAddress to({0x02, 0, 0, 0, 0, 0x0a});
  const MacAddress other({0x02, 0, 0, 0, 0, 0x0b});
  enum class Miss { kOffChannel, kSinkless, kOutOfRange };
  for (const bool grid : {true, false}) {
    for (const Miss miss : {Miss::kOffChannel, Miss::kSinkless,
                            Miss::kOutOfRange}) {
      Medium::Config cfg;
      cfg.spatial_grid = grid;
      EventQueue q;
      Medium m(q, cfg);
      Collector addressee, bystander;
      auto ap = m.attach({0, 0}, 6, 20.0);
      auto dst = m.attach({10, 0}, 6, 15.0, &addressee);
      dst.set_rx_address(to);
      m.attach({12, 0}, 6, 15.0, &bystander).set_rx_address(other);
      if (miss == Miss::kOffChannel) dst.set_channel(11);
      if (miss == Miss::kSinkless) dst.set_sink(nullptr);
      if (miss == Miss::kOutOfRange) dst.set_position({5000, 0});
      ap.transmit(dot11::make_probe_response(other, to, "U", 6, true));
      q.run_all();
      const int why = static_cast<int>(miss);
      EXPECT_TRUE(addressee.frames.empty()) << "grid " << grid << " " << why;
      EXPECT_TRUE(bystander.frames.empty()) << "grid " << grid << " " << why;
      EXPECT_EQ(m.deliveries(), 0u) << "grid " << grid << " " << why;
      if (grid) {
        EXPECT_EQ(m.fanout_stats().unicast, 1u) << why;
        EXPECT_EQ(m.fanout_stats().unicast_unheard, 1u) << why;
      }
    }
  }
}

TEST_F(MediumTest, ChannelIsolation) {
  Collector rx6, rx11;
  auto a = medium.attach({0, 0}, 6, 20.0);
  medium.attach({10, 0}, 6, 15.0, &rx6);
  medium.attach({10, 0}, 11, 15.0, &rx11);
  a.transmit(dot11::make_broadcast_probe_request(
      MacAddress::random_local(rng)));
  events.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(rx6.frames.size(), 1u);
  EXPECT_TRUE(rx11.frames.empty());
}

TEST_F(MediumTest, SenderDoesNotHearItself) {
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0, &rx);
  a.transmit(dot11::make_broadcast_probe_request(
      MacAddress::random_local(rng)));
  events.run_until(SimTime::seconds(1.0));
  EXPECT_TRUE(rx.frames.empty());
}

TEST_F(MediumTest, TransmissionsAreSerializedWithAirtime) {
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  medium.attach({10, 0}, 6, 15.0, &rx);
  const auto client = MacAddress::random_local(rng);
  for (int i = 0; i < 10; ++i) {
    a.transmit(dot11::make_probe_response(MacAddress::random_local(rng),
                                          client, "X", 6, true));
  }
  // After one frame's effective airtime only the first frame has landed.
  const auto one_frame =
      dot11::airtime(dot11::wire_size(dot11::make_probe_response(
                         MacAddress::random_local(rng), client, "X", 6, true)),
                     medium.config().mgmt_rate_mbps) *
      medium.config().contention_factor;
  events.run_until(one_frame + SimTime::microseconds(10));
  EXPECT_EQ(rx.frames.size(), 1u);
  events.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(rx.frames.size(), 10u);
}

TEST_F(MediumTest, FortyResponsesFitInScanWindow) {
  // End-to-end confirmation of the paper's 40-response budget: a full
  // 40-frame train completes within the 20 ms listen window, a longer train
  // does not.
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  medium.attach({10, 0}, 6, 15.0, &rx);
  const auto client = MacAddress::random_local(rng);
  for (int i = 0; i < 100; ++i) {
    a.transmit(dot11::make_probe_response(MacAddress::random_local(rng),
                                          client, "SSID-xx", 6, true));
  }
  events.run_until(dot11::kMinChannelTime + dot11::kMaxChannelTime);
  EXPECT_GE(rx.frames.size(), 35u);
  EXPECT_LE(rx.frames.size(), 45u);
}

TEST_F(MediumTest, ClearTxQueueAbortsPendingFrames) {
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  medium.attach({10, 0}, 6, 15.0, &rx);
  const auto client = MacAddress::random_local(rng);
  for (int i = 0; i < 20; ++i) {
    a.transmit(dot11::make_probe_response(MacAddress::random_local(rng),
                                          client, "Y", 6, true));
  }
  a.clear_tx_queue();
  events.run_until(SimTime::seconds(1.0));
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_EQ(a.tx_backlog(), 0u);
}

TEST_F(MediumTest, MovedRadioStopsReceiving) {
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  auto b = medium.attach({10, 0}, 6, 15.0, &rx);
  b.set_position({4000, 4000});
  a.transmit(dot11::make_broadcast_probe_request(
      MacAddress::random_local(rng)));
  events.run_until(SimTime::seconds(1.0));
  EXPECT_TRUE(rx.frames.empty());
}

TEST_F(MediumTest, DetachedRadioIsGone) {
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  auto b = medium.attach({10, 0}, 6, 15.0, &rx);
  medium.detach(b);
  EXPECT_FALSE(b.valid());
  a.transmit(dot11::make_broadcast_probe_request(
      MacAddress::random_local(rng)));
  events.run_until(SimTime::seconds(1.0));
  EXPECT_TRUE(rx.frames.empty());

  // A detached radio's receive address is forgotten: a unicast frame to it
  // reaches nobody, and a radio registering the address afterwards gets
  // each frame exactly once.
  const MacAddress to({0x02, 0, 0, 0, 0, 0x21});
  for (const bool grid : {true, false}) {
    Medium::Config cfg;
    cfg.spatial_grid = grid;
    EventQueue q;
    Medium m(q, cfg);
    Collector gone, heir;
    auto ap = m.attach({0, 0}, 6, 20.0);
    auto old = m.attach({10, 0}, 6, 15.0, &gone);
    old.set_rx_address(to);
    m.detach(old);
    const auto frame = dot11::make_probe_response(
        MacAddress::random_local(rng), to, "U", 6, true);
    ap.transmit(frame);
    q.run_all();
    EXPECT_TRUE(gone.frames.empty()) << "grid " << grid;
    EXPECT_EQ(m.deliveries(), 0u) << "grid " << grid;
    auto next = m.attach({10, 0}, 6, 15.0, &heir);
    next.set_rx_address(to);
    ap.transmit(frame);
    q.run_all();
    EXPECT_EQ(heir.frames.size(), 1u) << "grid " << grid;
    EXPECT_TRUE(gone.frames.empty()) << "grid " << grid;
  }
}

TEST_F(MediumTest, CountersTrack) {
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  auto b = medium.attach({10, 0}, 6, 15.0, &rx);
  a.transmit(dot11::make_broadcast_probe_request(
      MacAddress::random_local(rng)));
  events.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(a.frames_sent(), 1u);
  EXPECT_EQ(b.frames_received(), 1u);
  EXPECT_EQ(medium.transmissions(), 1u);
  EXPECT_EQ(medium.deliveries(), 1u);
}

TEST_F(MediumTest, SinkMayDetachRadiosDuringDelivery) {
  // A sink that detaches another radio mid-fanout must not crash delivery.
  struct Detacher : FrameSink {
    Medium* medium = nullptr;
    Radio* victim = nullptr;
    void on_frame(const dot11::Frame&, const RxInfo&) override {
      if (victim->valid()) medium->detach(*victim);
    }
  };
  Detacher d;
  Collector rx;
  auto a = medium.attach({0, 0}, 6, 20.0);
  auto b = medium.attach({5, 0}, 6, 15.0, &d);
  auto c = medium.attach({10, 0}, 6, 15.0, &rx);
  d.medium = &medium;
  d.victim = &c;
  a.transmit(dot11::make_broadcast_probe_request(
      MacAddress::random_local(rng)));
  events.run_until(SimTime::seconds(1.0));
  EXPECT_FALSE(c.valid());
  EXPECT_TRUE(rx.frames.empty());  // c was detached before its delivery
  (void)b;
}

TEST_F(MediumTest, SlotTableBoundaryIdsResolveSafely) {
  // Regression for the slot_of() bounds check: the comparison now happens in
  // RadioId's unsigned 64-bit domain, so the id one past the table — and
  // ids far wider than 32 bits — must resolve to "no radio", while the last
  // issued id stays live.
  auto a = medium.attach({0, 0}, 6, 20.0);
  auto b = medium.attach({10, 0}, 6, 15.0);
  auto c = medium.attach({20, 0}, 6, 15.0);
  ASSERT_EQ(c.id(), 3u);  // 3 slots issued: table size is exactly 3
  EXPECT_TRUE(medium.has_radio(1));
  EXPECT_TRUE(medium.has_radio(3));   // boundary: last row of the table
  EXPECT_FALSE(medium.has_radio(0));
  EXPECT_FALSE(medium.has_radio(4));  // boundary: one past the table
  EXPECT_FALSE(medium.has_radio((std::uint64_t{1} << 32) + 1));
  EXPECT_FALSE(medium.has_radio(~std::uint64_t{0}));

  // Detaching the last radio keeps the table size but kills the id; a stale
  // copy of its handle must throw, not read a recycled slot.
  Radio stale = c;
  medium.detach(c);
  EXPECT_FALSE(medium.has_radio(3));
  EXPECT_THROW(stale.position(), std::logic_error);
  (void)a;
  (void)b;
}

TEST_F(MediumTest, NonFinitePositionsAreRejected) {
  // A NaN or infinite coordinate has no grid cell (the cast of its floor to
  // an integer is undefined), so attach, import_radio and set_position all
  // refuse one, on both pipelines, and leave the Medium as it was.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Position bad[] = {{kNaN, 5.0}, {5.0, kNaN}, {kInf, 0.0}, {0.0, -kInf}};
  for (const bool grid : {true, false}) {
    Medium::Config cfg;
    cfg.spatial_grid = grid;
    EventQueue q;
    Medium m(q, cfg);
    Collector rx;
    auto tx = m.attach({0, 0}, 6, 15.0);
    for (const Position& p : bad) {
      EXPECT_THROW(m.attach(p, 6, 15.0, &rx), std::invalid_argument);
      EXPECT_THROW(tx.set_position(p), std::invalid_argument);
      Medium::RadioSnapshot snapshot;
      snapshot.pos = p;
      EXPECT_THROW(m.import_radio(snapshot, &rx), std::invalid_argument);
    }
    EXPECT_EQ(tx.position().x, 0.0) << "grid " << grid;
    EXPECT_EQ(tx.position().y, 0.0) << "grid " << grid;
    // No id was issued to a refused radio, and delivery still works.
    auto next = m.attach({10, 0}, 6, 15.0, &rx);
    EXPECT_EQ(next.id(), 2u) << "grid " << grid;
    tx.transmit(dot11::make_broadcast_probe_request(
        MacAddress::random_local(rng)));
    q.run_all();
    EXPECT_EQ(rx.frames.size(), 1u) << "grid " << grid;
  }
}

TEST_F(MediumTest, FarOffRadioNeitherHearsNorIsHeard) {
  // x = ±1e300 floors far outside the int32 cell range the grid keys on:
  // the grid clamps such radios into edge cells, where the d² filter keeps
  // them apart from everyone, each other included. The scan agrees.
  for (const bool grid : {true, false}) {
    Medium::Config cfg;
    cfg.spatial_grid = grid;
    EventQueue q;
    Medium m(q, cfg);
    Collector near_rx, far_rx, farther_rx, opposite_rx;
    auto near = m.attach({0, 0}, 6, 20.0, &near_rx);
    auto far = m.attach({1e300, 0}, 6, 20.0, &far_rx);
    auto farther = m.attach({2e300, 0}, 6, 20.0, &farther_rx);
    auto opposite = m.attach({-1e300, -1e300}, 6, 20.0, &opposite_rx);
    for (Radio* r : {&near, &far, &farther, &opposite}) {
      r->transmit(dot11::make_broadcast_probe_request(
          MacAddress::random_local(rng)));
    }
    q.run_all();
    EXPECT_EQ(m.transmissions(), 4u) << "grid " << grid;
    EXPECT_EQ(m.deliveries(), 0u) << "grid " << grid;
    EXPECT_TRUE(near_rx.frames.empty()) << "grid " << grid;
    EXPECT_TRUE(far_rx.frames.empty()) << "grid " << grid;
    EXPECT_TRUE(farther_rx.frames.empty()) << "grid " << grid;
    EXPECT_TRUE(opposite_rx.frames.empty()) << "grid " << grid;

    // Moved back into range, the far radio hears like any other.
    far.set_position({10, 0});
    near.transmit(dot11::make_broadcast_probe_request(
        MacAddress::random_local(rng)));
    q.run_all();
    EXPECT_EQ(far_rx.frames.size(), 1u) << "grid " << grid;
    EXPECT_EQ(m.deliveries(), 1u) << "grid " << grid;
  }
}

TEST_F(MediumTest, RejectsNonFiniteTxPower) {
  // A NaN, infinite or overflowing power has no finite range: the grid
  // would size its cells and range boxes from it (an undefined double →
  // integer cast), and a NaN power never matches its own range-cache entry.
  // attach, import_radio and set_tx_power_dbm refuse one, on both
  // pipelines, and leave the Medium as it was.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const bool grid : {true, false}) {
    Medium::Config cfg;
    cfg.spatial_grid = grid;
    EventQueue q;
    Medium m(q, cfg);
    Collector rx;
    auto tx = m.attach({0, 0}, 6, 15.0);
    for (const double dbm : {kNaN, kInf, -kInf, 1e5}) {
      EXPECT_THROW(m.attach({1, 0}, 6, dbm, &rx), std::invalid_argument)
          << dbm;
      EXPECT_THROW(tx.set_tx_power_dbm(dbm), std::invalid_argument) << dbm;
      Medium::RadioSnapshot snapshot;
      snapshot.tx_power_dbm = dbm;
      EXPECT_THROW(m.import_radio(snapshot, &rx), std::invalid_argument)
          << dbm;
    }
    EXPECT_EQ(tx.tx_power_dbm(), 15.0) << "grid " << grid;
    auto next = m.attach({10, 0}, 6, 15.0, &rx);
    EXPECT_EQ(next.id(), 2u) << "grid " << grid;
    tx.transmit(dot11::make_broadcast_probe_request(
        MacAddress::random_local(rng)));
    q.run_all();
    EXPECT_EQ(rx.frames.size(), 1u) << "grid " << grid;
  }
}

// --- Receive roles ---

TEST_F(MediumTest, ReceiveMatrixFollowsAddressAndRole) {
  // A monitor hears everything on its channel. An AP and a station hear
  // unicast frames only under their own address; a group-addressed frame
  // reaches both, except a probe request, which reaches no station.
  const MacAddress src({0x02, 0, 0, 0, 0, 0x30});
  const MacAddress ap_addr({0x02, 0, 0, 0, 0, 0x31});
  const MacAddress sta_addr({0x02, 0, 0, 0, 0, 0x32});
  const MacAddress other({0x02, 0, 0, 0, 0, 0x33});
  struct Case {
    const char* name;
    dot11::Frame frame;
    bool monitor, ap, station;
  };
  const Case cases[] = {
      {"broadcast probe request", dot11::make_broadcast_probe_request(src),
       true, true, false},
      {"direct probe request", dot11::make_direct_probe_request(src, "home"),
       true, true, false},
      {"beacon", dot11::make_beacon(src, "cafe", 6, true, 0), true, true,
       true},
      {"broadcast deauth",
       dot11::make_deauth(src, MacAddress::broadcast(), src,
                          dot11::ReasonCode::kDeauthLeaving),
       true, true, true},
      {"unicast to the station",
       dot11::make_probe_response(src, sta_addr, "cafe", 6, true), true,
       false, true},
      {"unicast to another address",
       dot11::make_probe_response(src, other, "cafe", 6, true), true, false,
       false},
  };
  for (const bool grid : {true, false}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + (grid ? ", grid" : ", scan"));
      Medium::Config cfg;
      cfg.spatial_grid = grid;
      EventQueue q;
      Medium m(q, cfg);
      Collector monitor, ap, station;
      auto tx = m.attach({0, 0}, 6, 20.0);
      m.attach({10, 0}, 6, 15.0, &monitor);
      m.attach({12, 0}, 6, 15.0, &ap, ap_addr);  // the default role
      m.attach({14, 0}, 6, 15.0, &station, sta_addr, RxRole::kStation);
      tx.transmit(c.frame);
      q.run_all();
      EXPECT_EQ(monitor.frames.size(), c.monitor ? 1u : 0u);
      EXPECT_EQ(ap.frames.size(), c.ap ? 1u : 0u);
      EXPECT_EQ(station.frames.size(), c.station ? 1u : 0u);
      EXPECT_EQ(m.deliveries(), static_cast<std::uint64_t>(
                                    c.monitor + c.ap + c.station));
    }
  }
}

TEST_F(MediumTest, RoleSurvivesEveryReRegistration) {
  // The role is fixed at attach. A new address (MAC randomization), a spell
  // as a monitor, a new sink, a retune and an export/import all leave a
  // station a station and an AP an AP.
  const MacAddress src({0x02, 0, 0, 0, 0, 0x40});
  const auto probe = dot11::make_broadcast_probe_request(src);
  for (const bool grid : {true, false}) {
    SCOPED_TRACE(grid ? "grid" : "scan");
    Medium::Config cfg;
    cfg.spatial_grid = grid;
    EventQueue q;
    Medium m(q, cfg);
    Collector first, second, ap_rx;
    auto tx = m.attach({0, 0}, 6, 20.0);
    auto sta = m.attach({10, 0}, 6, 15.0, &first,
                        MacAddress({0x02, 0, 0, 0, 0, 0x41}),
                        RxRole::kStation);
    auto ap = m.attach({12, 0}, 6, 15.0, &ap_rx,
                       MacAddress({0x02, 0, 0, 0, 0, 0x42}));
    // Frames each sink has heard after one probe request and one beacon.
    const auto send_both = [&] {
      tx.transmit(probe);
      tx.transmit(dot11::make_beacon(src, "cafe", tx.channel(), true, 0));
      q.run_all();
    };

    sta.set_rx_address(MacAddress({0x02, 0, 0, 0, 0, 0x43}));
    send_both();
    EXPECT_EQ(first.frames.size(), 1u);  // the beacon only
    sta.set_rx_address(std::nullopt);    // a monitor hears the probe too
    send_both();
    EXPECT_EQ(first.frames.size(), 3u);
    sta.set_rx_address(MacAddress({0x02, 0, 0, 0, 0, 0x44}));
    send_both();
    EXPECT_EQ(first.frames.size(), 4u);
    sta.set_sink(&second);
    send_both();
    EXPECT_EQ(second.frames.size(), 1u);
    sta.set_channel(11);
    tx.set_channel(11);
    ap.set_channel(11);
    send_both();
    EXPECT_EQ(second.frames.size(), 2u);

    const Medium::RadioSnapshot sta_snap = m.export_radio(sta);
    const Medium::RadioSnapshot ap_snap = m.export_radio(ap);
    EXPECT_EQ(sta_snap.role, RxRole::kStation);
    EXPECT_EQ(ap_snap.role, RxRole::kAccessPoint);
    m.import_radio(sta_snap, &second);
    m.import_radio(ap_snap, &ap_rx);
    send_both();
    EXPECT_EQ(second.frames.size(), 3u);
    EXPECT_EQ(second.frames.back().subtype(), dot11::MgmtSubtype::kBeacon);
    EXPECT_EQ(ap_rx.frames.size(), 12u);  // both frames, six times
  }
}

TEST_F(MediumTest, UnicastTrainFromTheOnlyMonitorLoadsOnlyItsAddressee) {
  // A venue's attacker is its only monitor. Its probe-response train to one
  // of 200 stations probes no monitor bucket (it would find only the
  // sender) and loads just the addressee from the address index. A second
  // monitor attached mid-train hears every frame from then on; once it is
  // detached, the next train loads the addressee alone again.
  EventQueue q;
  Medium m(q);
  Collector attacker_rx, second_rx;
  auto attacker = m.attach({0, 0}, 6, 20.0, &attacker_rx);
  std::vector<Collector> phones(200);
  for (std::size_t i = 0; i < phones.size(); ++i) {
    const double angle = 0.0314 * static_cast<double>(i);
    m.attach({20.0 * std::cos(angle), 20.0 * std::sin(angle)}, 6, 15.0,
             &phones[i],
             MacAddress({0x02, 0xc1, 0, 0, static_cast<std::uint8_t>(i >> 8),
                         static_cast<std::uint8_t>(i)}),
             RxRole::kStation);
  }
  constexpr std::size_t kTarget = 117;
  const MacAddress victim({0x02, 0xc1, 0, 0, 0, kTarget});
  const MacAddress bssid({0x0a, 0x7e, 0x64, 0xc1, 0x7e, 0x01});
  constexpr int kTrain = 40;
  for (int i = 0; i < kTrain; ++i) {
    attacker.transmit(dot11::make_probe_response(
        bssid, victim, "SSID-" + std::to_string(i), 6, true));
  }
  const auto one_frame =
      dot11::airtime(dot11::wire_size(dot11::make_probe_response(
                         bssid, victim, "SSID-0", 6, true)),
                     m.config().mgmt_rate_mbps) *
      m.config().contention_factor;
  q.run_until(one_frame * 20.5);
  const std::size_t first_half = phones[kTarget].frames.size();
  ASSERT_GT(first_half, 0u);
  ASSERT_LT(first_half, static_cast<std::size_t>(kTrain));
  EXPECT_EQ(m.fanout_stats().candidates_loaded, first_half);
  auto second = m.attach({5, 5}, 6, 15.0, &second_rx);
  q.run_all();

  for (std::size_t i = 0; i < phones.size(); ++i) {
    EXPECT_EQ(phones[i].frames.size(), i == kTarget ? std::size_t{kTrain} : 0u)
        << "phone " << i;
  }
  EXPECT_TRUE(attacker_rx.frames.empty());
  EXPECT_EQ(second_rx.frames.size(),
            static_cast<std::size_t>(kTrain) - first_half);
  EXPECT_EQ(m.deliveries(), kTrain + second_rx.frames.size());
  EXPECT_EQ(m.fanout_stats().unicast, static_cast<std::uint64_t>(kTrain));
  EXPECT_EQ(m.fanout_stats().unicast_unheard, 0u);

  m.detach(second);
  const auto loaded = m.fanout_stats().candidates_loaded;
  for (int i = 0; i < kTrain; ++i) {
    attacker.transmit(dot11::make_probe_response(bssid, victim, "again", 6,
                                                 true));
  }
  q.run_all();
  EXPECT_EQ(phones[kTarget].frames.size(), 2u * kTrain);
  EXPECT_EQ(m.fanout_stats().candidates_loaded - loaded,
            static_cast<std::uint64_t>(kTrain));
}

// --- PathLossLut ---

TEST(PathLossLut, MonotoneAndWithinErrorBound) {
  LogDistancePathLoss::Config cfg;
  LogDistancePathLoss exact(cfg);
  PathLossLut lut(cfg, 600.0);
  ASSERT_TRUE(lut.covers(600.0 * 600.0));
  // The analytic per-segment bound must be tiny versus RSSI quantization.
  EXPECT_GT(lut.max_error_db(), 0.0);
  EXPECT_LT(lut.max_error_db(), 0.002);

  double prev_rx = 1e300;
  Rng rng(99);
  for (int i = 0; i <= 20000; ++i) {
    const double d = 1.0 + (600.0 - 1.0) * i / 20000.0;
    const double approx = lut.rx_power_dbm_sq(20.0, d * d);
    const double truth = exact.rx_power_dbm(20.0, d);
    // The chord sits below the concave PL curve, so the approximation never
    // understates path loss by more than the bound and never overstates it.
    EXPECT_LE(truth - approx, 1e-12) << "d=" << d;
    EXPECT_LE(approx - truth, lut.max_error_db() + 1e-12) << "d=" << d;
    EXPECT_LE(approx, prev_rx + 1e-15) << "d=" << d;  // monotone in distance
    prev_rx = approx;
    // Random spot checks too, not just the uniform sweep.
    const double rd = rng.uniform(1.0, 600.0);
    const double delta =
        lut.rx_power_dbm_sq(20.0, rd * rd) - exact.rx_power_dbm(20.0, rd);
    EXPECT_LE(std::abs(delta), lut.max_error_db() + 1e-12);
  }
}

TEST(PathLossLut, ClampMatchesExactInsideReferenceDistance) {
  LogDistancePathLoss::Config cfg;
  LogDistancePathLoss exact(cfg);
  PathLossLut lut(cfg, 100.0);
  EXPECT_DOUBLE_EQ(lut.rx_power_dbm_sq(20.0, 0.25),
                   exact.rx_power_dbm(20.0, 0.5));
  EXPECT_DOUBLE_EQ(lut.rx_power_dbm_sq(20.0, 1.0),
                   exact.rx_power_dbm(20.0, 1.0));
}

// --- Batched-vs-reference equivalence fuzz ---

// One recorded delivery: which receiver, when, at what RSSI.
struct DeliveryRecord {
  std::uint64_t rx_id = 0;
  std::int64_t t_us = 0;
  double rssi_dbm = 0.0;
  std::uint8_t channel = 0;

  bool operator==(const DeliveryRecord&) const = default;
};

// A Medium plus a population of radios whose sinks log every delivery into
// one shared sequence — the observable behavior two pipelines must agree on.
struct FuzzRig {
  struct LoggingSink : FrameSink {
    std::vector<DeliveryRecord>* log = nullptr;
    std::uint64_t id = 0;
    void on_frame(const dot11::Frame&, const RxInfo& info) override {
      log->push_back({id, info.time.us(), info.rssi_dbm, info.channel});
    }
  };

  EventQueue events;
  Medium medium;
  std::vector<std::unique_ptr<LoggingSink>> sinks;
  std::vector<Radio> radios;
  std::vector<DeliveryRecord> log;

  explicit FuzzRig(Medium::Config cfg) : medium(events, cfg) {}

  void attach(Position pos, std::uint8_t channel, double dbm, RxRole role) {
    auto sink = std::make_unique<LoggingSink>();
    sink->log = &log;
    radios.push_back(
        medium.attach(pos, channel, dbm, sink.get(), std::nullopt, role));
    sink->id = radios.back().id();
    sinks.push_back(std::move(sink));
  }

  /// Hand radio `i` off to its own Medium: export, then import under a
  /// fresh id (a shard handoff without the second shard).
  void reimport(std::size_t i) {
    const Medium::RadioSnapshot snapshot = medium.export_radio(radios[i]);
    radios[i] = medium.import_radio(snapshot, sinks[i].get());
    sinks[i]->id = radios[i].id();
  }
};

// Scripted operations, generated once and replayed against every rig.
struct FuzzOp {
  enum Kind {
    kAttach,
    kDetach,
    kMove,
    kSetChannel,
    kSetRxAddress,
    kSetTxPower,
    kReimport,
    kTransmit
  } kind;
  std::size_t target = 0;    // radio index (mod population)
  Position pos;
  std::uint8_t channel = 6;
  double dbm = 15.0;  // attach power, or the power kSetTxPower sets
  bool broadcast = true;
  /// Index into kAddressPool: the address kSetRxAddress registers (-1 =
  /// back to monitor) and a unicast kTransmit's addr1 (-1 = an address no
  /// radio holds).
  int addr = -1;
  /// The role a kAttach gives its radio (it acts once the radio has an
  /// address), and which frame a kTransmit sends (see fuzz_frame).
  RxRole role = RxRole::kAccessPoint;
  int frame = 0;
};

// A kTransmit's frame: a broadcast probe request, a direct probe request, a
// beacon or a broadcast deauthentication when op.broadcast is set;
// otherwise a probe response, a deauthentication or a probe request
// addressed to `dst`.
dot11::Frame fuzz_frame(const FuzzOp& op, const MacAddress& src,
                        const MacAddress& dst, std::uint8_t channel) {
  if (op.broadcast) {
    switch (op.frame % 4) {
      case 0:
        return dot11::make_broadcast_probe_request(src);
      case 1:
        return dot11::make_direct_probe_request(src, "fuzz-home");
      case 2:
        return dot11::make_beacon(src, "fuzz-ssid", channel, true, 0);
      default:
        return dot11::make_deauth(src, MacAddress::broadcast(), src,
                                  dot11::ReasonCode::kDeauthLeaving);
    }
  }
  switch (op.frame % 3) {
    case 0:
      return dot11::make_probe_response(src, dst, "fuzz-ssid", channel, true);
    case 1:
      return dot11::make_deauth(src, dst, src,
                                dot11::ReasonCode::kDeauthLeaving);
    default: {
      dot11::Frame probe = dot11::make_direct_probe_request(src, "fuzz-home");
      probe.header.addr1 = dst;
      return probe;
    }
  }
}

// Gives every op of `script` a random role and frame from a stream of its
// own, so each script's churn — and the storms' compaction counts — stay
// what their generators drew.
std::vector<FuzzOp> with_roles_and_frames(std::vector<FuzzOp> script,
                                          std::uint64_t seed) {
  Rng rng(seed ^ 0x706f6c65ULL);
  for (FuzzOp& op : script) {
    op.role = rng.chance(0.5) ? RxRole::kStation : RxRole::kAccessPoint;
    op.frame = static_cast<int>(rng.index(12));
  }
  return script;
}

// Receive addresses the fuzz scripts register and aim unicast frames at.
// Four addresses over dozens of radios, so several radios share one.
const MacAddress kAddressPool[] = {
    MacAddress({0x02, 0xf0, 0, 0, 0, 1}), MacAddress({0x02, 0xf0, 0, 0, 0, 2}),
    MacAddress({0x02, 0xf0, 0, 0, 0, 3}), MacAddress({0x02, 0xf0, 0, 0, 0, 4})};

int random_pool_index(Rng& rng) { return static_cast<int>(rng.index(5)) - 1; }

std::vector<FuzzOp> make_fuzz_script(std::uint64_t seed, int ops) {
  Rng rng(seed);
  std::vector<FuzzOp> script;
  const std::uint8_t channels[] = {1, 6, 11};
  // Positions span ±200 m with ~60 m cells: moves routinely cross cell
  // boundaries and transmissions straddle several buckets.
  const auto pos = [&rng]() -> Position {
    return {rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0)};
  };
  for (int i = 0; i < 12; ++i) {  // initial population
    script.push_back({FuzzOp::kAttach, 0, pos(),
                      channels[rng.index(3)],
                      rng.chance(0.3) ? 20.0 : 15.0, true});
  }
  for (int i = 0; i < ops; ++i) {
    const double roll = rng.uniform(0.0, 1.0);
    FuzzOp op;
    op.target = rng.index(64);
    op.pos = pos();
    op.channel = channels[rng.index(3)];
    op.dbm = rng.chance(0.3) ? 20.0 : 15.0;
    op.broadcast = rng.chance(0.5);
    op.addr = random_pool_index(rng);
    if (roll < 0.12) {
      op.kind = FuzzOp::kAttach;
    } else if (roll < 0.2) {
      op.kind = FuzzOp::kDetach;
    } else if (roll < 0.38) {
      op.kind = FuzzOp::kMove;
    } else if (roll < 0.46) {
      op.kind = FuzzOp::kSetChannel;
    } else if (roll < 0.54) {
      op.kind = FuzzOp::kSetRxAddress;
    } else if (roll < 0.58) {
      // 23 dBm outranges every attach power: the grid regrows its cells
      // and the LUT its coverage mid-script.
      const double powers[] = {10.0, 15.0, 20.0, 23.0};
      op.kind = FuzzOp::kSetTxPower;
      op.dbm = powers[rng.index(4)];
    } else if (roll < 0.62) {
      op.kind = FuzzOp::kReimport;
    } else {
      op.kind = FuzzOp::kTransmit;
    }
    script.push_back(op);
  }
  return with_roles_and_frames(std::move(script), seed);
}

void replay(FuzzRig& rig, const std::vector<FuzzOp>& script) {
  Rng frame_rng(4242);  // same MACs in every rig
  std::size_t alive_guess = 0;
  for (const FuzzOp& op : script) {
    const std::size_t n = rig.radios.size();
    switch (op.kind) {
      case FuzzOp::kAttach:
        rig.attach(op.pos, op.channel, op.dbm, op.role);
        ++alive_guess;
        break;
      case FuzzOp::kDetach: {
        if (n == 0) break;
        Radio& r = rig.radios[op.target % n];
        if (r.valid()) rig.medium.detach(r);
        break;
      }
      case FuzzOp::kMove: {
        if (n == 0) break;
        Radio& r = rig.radios[op.target % n];
        if (r.valid()) r.set_position(op.pos);
        break;
      }
      case FuzzOp::kSetChannel: {
        if (n == 0) break;
        Radio& r = rig.radios[op.target % n];
        if (r.valid()) r.set_channel(op.channel);
        break;
      }
      case FuzzOp::kSetRxAddress: {
        if (n == 0) break;
        Radio& r = rig.radios[op.target % n];
        if (!r.valid()) break;
        if (op.addr < 0) {
          r.set_rx_address(std::nullopt);
        } else {
          r.set_rx_address(kAddressPool[op.addr]);
        }
        break;
      }
      case FuzzOp::kSetTxPower: {
        if (n == 0) break;
        Radio& r = rig.radios[op.target % n];
        if (r.valid()) r.set_tx_power_dbm(op.dbm);
        break;
      }
      case FuzzOp::kReimport: {
        if (n == 0) break;
        if (rig.radios[op.target % n].valid()) rig.reimport(op.target % n);
        break;
      }
      case FuzzOp::kTransmit: {
        if (n == 0) break;
        Radio& r = rig.radios[op.target % n];
        const auto src = MacAddress::random_local(frame_rng);
        const auto unheld = MacAddress::random_local(frame_rng);
        const auto dst = op.addr < 0 ? unheld : kAddressPool[op.addr];
        if (!r.valid()) break;
        r.transmit(fuzz_frame(op, src, dst, r.channel()));
        rig.events.run_all();
        break;
      }
    }
  }
  (void)alive_guess;
}

Medium::Config fuzz_config(bool lut, bool grid, bool fault) {
  Medium::Config cfg;
  cfg.spatial_grid = grid;
  cfg.pathloss_lut = lut;
  if (fault) {
    cfg.fault.enabled = true;
    cfg.fault.seed = 77;
    cfg.fault.ambient_loss = 0.05;
    cfg.fault.corruption_rate = 0.02;
  }
  return cfg;
}

TEST(MediumEquivalence, BatchedMatchesReferenceUnderChurn) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    const auto script = make_fuzz_script(seed, 300);

    // Exact-math rigs: every delivery must match the scan oracle bit for
    // bit.
    FuzzRig reference(fuzz_config(false, false, false));
    FuzzRig batched_exact(fuzz_config(false, true, false));
    replay(reference, script);
    replay(batched_exact, script);
    EXPECT_EQ(reference.log, batched_exact.log) << "seed " << seed;

    // LUT rig: identical delivery set/order/timing; RSSI within the LUT's
    // analytic error bound (far below RSSI quantization).
    FuzzRig batched_lut(fuzz_config(true, true, false));
    replay(batched_lut, script);
    ASSERT_EQ(batched_lut.log.size(), reference.log.size()) << "seed " << seed;
    const PathLossLut bound_lut(Medium::Config{}.propagation, 1000.0);
    for (std::size_t i = 0; i < reference.log.size(); ++i) {
      EXPECT_EQ(batched_lut.log[i].rx_id, reference.log[i].rx_id);
      EXPECT_EQ(batched_lut.log[i].t_us, reference.log[i].t_us);
      EXPECT_EQ(batched_lut.log[i].channel, reference.log[i].channel);
      EXPECT_LE(std::abs(batched_lut.log[i].rssi_dbm -
                         reference.log[i].rssi_dbm),
                bound_lut.max_error_db() + 1e-12);
    }
  }
}

// Role churn in a crowd: radios packed into ±60 m, so most hear each
// other; a fifth of all ops register or drop an address, and the broadcast
// mix is half probe requests. Stations in range of a group probe request,
// the one frame they do not receive, are then common, where the sparse mix
// above delivers a few dozen frames per script.
std::vector<FuzzOp> make_role_storm_script(std::uint64_t seed, int ops) {
  Rng rng(seed);
  std::vector<FuzzOp> script;
  const std::uint8_t channels[] = {1, 6};
  const auto pos = [&rng]() -> Position {
    return {rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)};
  };
  for (int i = 0; i < 24; ++i) {  // initial population
    script.push_back({FuzzOp::kAttach, 0, pos(), channels[rng.index(2)],
                      rng.chance(0.3) ? 20.0 : 15.0, true});
  }
  for (int i = 0; i < ops; ++i) {
    const double roll = rng.uniform(0.0, 1.0);
    FuzzOp op;
    op.target = rng.index(64);
    op.pos = pos();
    op.channel = channels[rng.index(2)];
    op.dbm = rng.chance(0.3) ? 20.0 : 15.0;
    op.broadcast = rng.chance(0.6);
    op.addr = random_pool_index(rng);
    if (roll < 0.06) {
      op.kind = FuzzOp::kAttach;
    } else if (roll < 0.10) {
      op.kind = FuzzOp::kDetach;
    } else if (roll < 0.20) {
      op.kind = FuzzOp::kMove;
    } else if (roll < 0.25) {
      op.kind = FuzzOp::kSetChannel;
    } else if (roll < 0.45) {
      op.kind = FuzzOp::kSetRxAddress;
    } else if (roll < 0.52) {
      op.kind = FuzzOp::kReimport;
    } else {
      op.kind = FuzzOp::kTransmit;
    }
    script.push_back(op);
  }
  return with_roles_and_frames(std::move(script), seed);
}

TEST(MediumEquivalence, RoleStormMatchesLegacyScanAcrossPipelines) {
  // Monitors, addressed APs and stations, every group and unicast frame of
  // the fuzz mix, under address, channel, position and handoff churn: the
  // grid's partitions and partition skips must deliver exactly what the
  // scan's gather-time rule delivers, exact-math and lossy alike.
  for (const std::uint64_t seed : {7u, 8u}) {
    const auto script = make_role_storm_script(seed, 600);
    for (const bool fault : {false, true}) {
      FuzzRig scan(fuzz_config(false, false, fault));
      replay(scan, script);
      ASSERT_GT(scan.log.size(), 500u) << "seed " << seed;
      FuzzRig rig(fault ? fuzz_config(true, true, true)
                        : fuzz_config(false, true, false));
      replay(rig, script);
      EXPECT_EQ(scan.log, rig.log) << "seed " << seed << " fault " << fault;
      if (fault) {
        EXPECT_EQ(scan.medium.frames_lost(), rig.medium.frames_lost());
        EXPECT_EQ(scan.medium.drops(), rig.medium.drops());
        EXPECT_EQ(scan.medium.retries(), rig.medium.retries());
      }
    }
  }
}

TEST(MediumEquivalence, LossyRunsAreBitIdenticalAcrossPipelines) {
  // With fault injection on, the grid pipeline takes the exact-math road
  // for the erasure draw even with the LUT enabled, so lossy runs must
  // agree with the scan oracle bit for bit — RSSI, loss pattern, and
  // counters alike.
  for (const std::uint64_t seed : {5u, 6u}) {
    const auto script = make_fuzz_script(seed, 300);
    FuzzRig scan(fuzz_config(false, false, true));
    FuzzRig batched(fuzz_config(true, true, true));
    replay(scan, script);
    replay(batched, script);
    EXPECT_EQ(scan.log, batched.log) << "seed " << seed;
    EXPECT_EQ(scan.medium.frames_lost(), batched.medium.frames_lost());
    EXPECT_EQ(scan.medium.drops(), batched.medium.drops());
    EXPECT_EQ(scan.medium.retries(), batched.medium.retries());
  }
}

// Churn harness for the mid-delivery mutation test: sinks that move,
// detach and attach radios from inside on_frame, off a deterministic tick
// shared by the whole population.
struct ChurnSink;
struct ChurnState {
  Medium* medium = nullptr;
  std::vector<Radio> radios;
  std::vector<std::unique_ptr<ChurnSink>> sinks;
  std::vector<DeliveryRecord> log;
  std::uint64_t tick = 0;

  void attach(Position pos, std::uint8_t channel, double dbm);
};
struct ChurnSink : FrameSink {
  ChurnState* s = nullptr;
  std::uint64_t id = 0;
  void on_frame(const dot11::Frame&, const RxInfo& info) override {
    s->log.push_back({id, info.time.us(), info.rssi_dbm, info.channel});
    const std::uint64_t t = s->tick++;
    auto& radios = s->radios;
    if (t % 3 == 0) {  // drag a peer across cells mid-fanout
      Radio& r = radios[t % radios.size()];
      if (r.valid()) {
        r.set_position({static_cast<double>(t % 173) - 86.0,
                        static_cast<double>(t % 59) - 29.0});
      }
    }
    if (t % 7 == 2) {  // detach a peer mid-fanout
      Radio& r = radios[(t / 7) % radios.size()];
      if (r.valid()) s->medium->detach(r);
    }
    if (t % 11 == 4) {  // attach mid-fanout (slot > every candidate)
      s->attach({static_cast<double>(t % 97) - 48.0, 10.0}, 6, 15.0);
    }
  }
};

void ChurnState::attach(Position pos, std::uint8_t channel, double dbm) {
  auto sink = std::make_unique<ChurnSink>();
  sink->s = this;
  radios.push_back(medium->attach(pos, channel, dbm, sink.get()));
  sink->id = radios.back().id();
  sinks.push_back(std::move(sink));
}

TEST(MediumEquivalence, GridFanoutSurvivesSinkChurnMidDelivery) {
  // Sinks that mutate the topology *during* the fanout — moving peers,
  // detaching them, attaching new radios — from inside on_frame. The grid
  // pipeline snapshots survivors before any sink runs, so it must deliver
  // the same sequence as the legacy scan.
  const auto run = [](Medium::Config cfg) {
    EventQueue events;
    Medium medium(events, cfg);
    ChurnState state;
    state.medium = &medium;
    Rng rng(313);
    for (int i = 0; i < 24; ++i) {
      state.attach({rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)},
                   6, rng.chance(0.25) ? 20.0 : 15.0);
    }
    auto& radios = state.radios;
    Rng mac_rng(99);
    for (int i = 0; i < 80; ++i) {
      Radio& tx = radios[static_cast<std::size_t>(i * 7) % radios.size()];
      if (!tx.valid()) continue;
      if (i % 2 == 0) {
        tx.transmit(dot11::make_broadcast_probe_request(
            MacAddress::random_local(mac_rng)));
      } else {
        tx.transmit(dot11::make_probe_response(
            MacAddress::random_local(mac_rng),
            MacAddress::random_local(mac_rng), "churn", tx.channel(), true));
      }
      events.run_all();
    }
    return state.log;
  };

  const auto scan_log = run(fuzz_config(false, false, false));
  ASSERT_FALSE(scan_log.empty());
  const auto log = run(fuzz_config(false, true, false));
  ASSERT_EQ(log.size(), scan_log.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i].rx_id, scan_log[i].rx_id) << "record " << i;
    ASSERT_EQ(log[i].t_us, scan_log[i].t_us) << "record " << i;
    ASSERT_EQ(bits(log[i].rssi_dbm), bits(scan_log[i].rssi_dbm))
        << "record " << i;
    ASSERT_EQ(log[i].channel, scan_log[i].channel) << "record " << i;
  }
}

// --- Channel-partitioned index: set_channel and compaction storms ---

// A script that hammers the channel-bucket migration path: a bigger
// population than the regular fuzz mix, and half of all ops are
// set_channel calls (bursts of retunes between transmits). Every retune
// migrates the radio between per-channel buckets — erase from one
// partition, insert into another — so this stresses bucket create/recycle,
// deferred-merge normalization and arena compaction far harder than
// make_fuzz_script's 8% retune rate.
std::vector<FuzzOp> make_channel_storm_script(std::uint64_t seed, int ops) {
  Rng rng(seed);
  std::vector<FuzzOp> script;
  const std::uint8_t channels[] = {1, 6, 11};
  const auto pos = [&rng]() -> Position {
    return {rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0)};
  };
  for (int i = 0; i < 24; ++i) {  // initial population
    script.push_back({FuzzOp::kAttach, 0, pos(), channels[rng.index(3)],
                      rng.chance(0.3) ? 20.0 : 15.0, true});
  }
  for (int i = 0; i < ops; ++i) {
    const double roll = rng.uniform(0.0, 1.0);
    FuzzOp op;
    op.target = rng.index(64);
    op.pos = pos();
    op.channel = channels[rng.index(3)];
    op.dbm = rng.chance(0.3) ? 20.0 : 15.0;
    op.broadcast = rng.chance(0.5);
    op.addr = random_pool_index(rng);
    if (roll < 0.04) {
      op.kind = FuzzOp::kAttach;
    } else if (roll < 0.10) {
      op.kind = FuzzOp::kDetach;
    } else if (roll < 0.22) {
      op.kind = FuzzOp::kMove;
    } else if (roll < 0.72) {
      op.kind = FuzzOp::kSetChannel;
    } else if (roll < 0.78) {
      op.kind = FuzzOp::kSetRxAddress;
    } else {
      op.kind = FuzzOp::kTransmit;
    }
    script.push_back(op);
  }
  return with_roles_and_frames(std::move(script), seed);
}

TEST(MediumEquivalence, SetChannelStormMatchesLegacyScanAcrossPipelines) {
  // Byte-identity under retune-dominated churn: the channel-partitioned
  // grid must agree with the legacy full scan (which has no index at all),
  // exact-math and faulty alike.
  for (const std::uint64_t seed : {101u, 202u}) {
    const auto script = make_channel_storm_script(seed, 500);
    for (const bool fault : {false, true}) {
      FuzzRig scan(fuzz_config(false, false, fault));
      replay(scan, script);
      ASSERT_FALSE(scan.log.empty()) << "seed " << seed;
      // The exact rig runs plain grid math; the lossy rig gets the LUT
      // pipeline, which the fault path degrades to exact math.
      FuzzRig rig(fault ? fuzz_config(true, true, true)
                        : fuzz_config(false, true, false));
      replay(rig, script);
      EXPECT_EQ(scan.log, rig.log) << "seed " << seed << " fault " << fault;
      if (fault) {
        EXPECT_EQ(scan.medium.frames_lost(), rig.medium.frames_lost());
        EXPECT_EQ(scan.medium.drops(), rig.medium.drops());
        EXPECT_EQ(scan.medium.retries(), rig.medium.retries());
      }
    }
  }
}

TEST(MediumEquivalence, ChannelStormFaultyMigrationIsDeterministic) {
  // The nastiest combination in one rig: retune-dominated churn, fault
  // injection, the LUT — replayed twice to check the rig itself is
  // deterministic (arena compaction and bucket recycling must not leak
  // allocation order into deliveries).
  const auto script = make_channel_storm_script(321u, 600);
  const auto run_once = [&script]() {
    FuzzRig rig(fuzz_config(true, true, true));
    replay(rig, script);
    return rig.log;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// Move-dominated churn spread over a wide area (most radios alone in their
// ~60 m cell), so nearly every move vacates a bucket and turns its whole
// capacity into arena garbage. A few thousand ops push the garbage counter
// past the compaction trigger (garbage >= 4096 and garbage > live) several
// times over while the live population stays ~24 — exactly the regime
// maybe_compact_arena exists for. Interleaved transmits make the probes
// bracket the compactions, so a botched rewrite would corrupt deliveries.
std::vector<FuzzOp> make_compaction_storm_script(std::uint64_t seed,
                                                 int ops) {
  Rng rng(seed);
  std::vector<FuzzOp> script;
  const std::uint8_t channels[] = {1, 6, 11};
  const auto pos = [&rng]() -> Position {
    return {rng.uniform(-480.0, 480.0), rng.uniform(-480.0, 480.0)};
  };
  for (int i = 0; i < 24; ++i) {  // initial population
    script.push_back({FuzzOp::kAttach, 0, pos(), channels[rng.index(3)],
                      rng.chance(0.3) ? 20.0 : 15.0, true});
  }
  for (int i = 0; i < ops; ++i) {
    const double roll = rng.uniform(0.0, 1.0);
    FuzzOp op;
    op.target = rng.index(64);
    op.pos = pos();
    op.channel = channels[rng.index(3)];
    op.dbm = rng.chance(0.3) ? 20.0 : 15.0;
    op.broadcast = rng.chance(0.5);
    op.addr = random_pool_index(rng);
    if (roll < 0.04) {
      op.kind = FuzzOp::kAttach;
    } else if (roll < 0.08) {
      op.kind = FuzzOp::kDetach;
    } else if (roll < 0.14) {
      op.kind = FuzzOp::kSetChannel;
    } else if (roll < 0.18) {
      op.kind = FuzzOp::kSetRxAddress;
    } else if (roll < 0.92) {
      op.kind = FuzzOp::kMove;
    } else {
      op.kind = FuzzOp::kTransmit;
    }
    script.push_back(op);
  }
  return with_roles_and_frames(std::move(script), seed);
}

TEST(MediumEquivalence, CompactionStormMatchesLegacyScanAcrossPipelines) {
  // Slab-arena compaction under fire: the storm must actually trip the
  // compactor (asserted via the arena counters, not inferred), and every
  // delivery before and after each rewrite must match the legacy full scan
  // — which has no arena to compact — byte for byte, exact-math and faulty
  // alike.
  const auto script = make_compaction_storm_script(555u, 7000);
  for (const bool fault : {false, true}) {
    FuzzRig scan(fuzz_config(false, false, fault));
    replay(scan, script);
    ASSERT_FALSE(scan.log.empty()) << "fault " << fault;
    EXPECT_EQ(scan.medium.arena_stats().compactions, 0u);  // no index at all
    FuzzRig rig(fault ? fuzz_config(true, true, true)
                      : fuzz_config(false, true, false));
    replay(rig, script);
    const auto arena = rig.medium.arena_stats();
    EXPECT_GT(arena.compactions, 0u)
        << "storm never tripped the compactor (garbage " << arena.garbage
        << ", live " << arena.live << ") — the test lost its teeth";
    // Between compactions the garbage stays under the trigger: compaction
    // fires as soon as both arms (>= 4096 and > live) hold.
    EXPECT_TRUE(arena.garbage < 4096 || arena.garbage <= arena.live)
        << "garbage " << arena.garbage << " live " << arena.live;
    EXPECT_EQ(scan.log, rig.log) << "fault " << fault;
    if (fault) {
      EXPECT_EQ(scan.medium.frames_lost(), rig.medium.frames_lost());
      EXPECT_EQ(scan.medium.drops(), rig.medium.drops());
      EXPECT_EQ(scan.medium.retries(), rig.medium.retries());
    }
  }
}

TEST(MediumEquivalence, IndexEmptiesAfterDetachingEveryRadio) {
  // The cell table erases by backward shift. An erase that leaves a stale
  // entry behind, or strands one out of its probe run, keeps a bucket and
  // its arena window alive with no radio in it. After the compaction
  // storm's churn, detaching every radio must empty the whole index.
  const auto script = make_compaction_storm_script(555u, 7000);
  FuzzRig rig(fuzz_config(false, true, false));
  replay(rig, script);
  const auto live = rig.medium.bucket_occupancy();
  ASSERT_GT(live.buckets, 0u);
  EXPECT_GE(live.min_occupancy, 1u);  // a live bucket holds a radio
  EXPECT_LE(live.min_occupancy, live.max_occupancy);
  ASSERT_GT(rig.medium.arena_stats().compactions, 0u);
  for (Radio& r : rig.radios) {
    if (r.valid()) rig.medium.detach(r);
  }
  const auto occ = rig.medium.bucket_occupancy();
  EXPECT_EQ(occ.buckets, 0u);
  EXPECT_EQ(occ.radios, 0u);
  EXPECT_EQ(occ.min_occupancy, 0u);
  EXPECT_EQ(occ.max_occupancy, 0u);
  EXPECT_EQ(rig.medium.arena_stats().live, 0u);
}

}  // namespace
}  // namespace cityhunter::medium
