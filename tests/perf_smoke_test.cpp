// Hot-path allocation budget smoke test (ctest label: perf).
//
// Counts global operator new calls (bench/alloc_counter.h, enabled via
// CITYHUNTER_COUNT_ALLOCS on this target only) across a steady-state
// transmit→schedule→deliver→parse loop and fails if the per-frame
// allocation budget is exceeded. This is the enforcement half of the
// pooled-codec / inline-event / flat-radio-table overhaul: a regression
// that reintroduces a std::function heap capture, a per-transmit wire
// buffer, or per-parse IE storage shows up here as a hard failure, not a
// gradual wallclock slide.
#include "alloc_counter.h"  // must precede any allocation in this TU

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "client/smartphone.h"
#include "core/cityhunter.h"
#include "dot11/frame.h"
#include "dot11/serialize.h"
#include "medium/event_queue.h"
#include "medium/medium.h"
#include "obs/trace.h"
#include "sim/parallel.h"
#include "sim/scenario.h"
#include "sim/shard.h"
#include "small_world.h"

namespace cityhunter {
namespace {

class CountingSink : public medium::FrameSink {
 public:
  void on_frame(const dot11::Frame& frame, const medium::RxInfo&) override {
    ++frames;
    last_subtype = frame.subtype();
  }
  std::uint64_t frames = 0;
  dot11::MgmtSubtype last_subtype{};
};

// Steady state after warm-up: one full transmit→deliver round trip per
// frame must average at most kBudgetPerFrame heap allocations (the design
// target is zero on the fault-off path; the budget leaves headroom for
// incidental growth such as a heap/backlog vector doubling mid-run).
constexpr std::uint64_t kBudgetPerFrame = 1;

TEST(PerfSmokeTest, SteadyStateTransmitStaysWithinAllocationBudget) {
  medium::EventQueue events;
  medium::Medium med(events);

  CountingSink rx;
  auto ap = med.attach({0, 0}, 6, 20.0);
  auto phone = med.attach({25, 0}, 6, 15.0, &rx);
  (void)phone;

  const dot11::MacAddress bssid({0x02, 0xaa, 0, 0, 0, 1});
  const dot11::MacAddress client({0x02, 0xbb, 0, 0, 0, 2});

  dot11::Frame scratch;
  std::uint16_t seq = 0;
  const auto send_one = [&] {
    dot11::make_probe_response_into(scratch, bssid, client, "golden-cafe", 6,
                                    /*open=*/true, seq = (seq + 1) & 0x0fff);
    ap.transmit(scratch);
    events.run_all();
  };

  // Warm up: first frames populate the transmission pool, event slab, IE
  // backing buffers and deliver scratch.
  for (int i = 0; i < 256; ++i) send_one();
  const std::uint64_t frames_before = rx.frames;

  constexpr std::uint64_t kFrames = 1000;
  const std::uint64_t allocs_before = bench::alloc_count();
  for (std::uint64_t i = 0; i < kFrames; ++i) send_one();
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;

  EXPECT_EQ(rx.frames - frames_before, kFrames)
      << "every measured frame must actually be delivered";
  EXPECT_EQ(rx.last_subtype, dot11::MgmtSubtype::kProbeResponse);
  EXPECT_LE(allocs, kFrames * kBudgetPerFrame)
      << "steady-state hot path exceeded the per-frame allocation budget: "
      << allocs << " allocations for " << kFrames << " frames";
}

// Same loop with structured tracing attached. The trace ring is storage
// allocated once up front; record() is an array store, so tracing may add at
// most 1 allocation per 100 frames of incidental slack on top of the normal
// per-frame budget.
TEST(PerfSmokeTest, TracingEnabledStaysWithinAllocationCeiling) {
  medium::EventQueue events;
  medium::Medium med(events);
  obs::TraceBuffer trace(4096);  // allocated here, before the measured loop
  med.set_trace(&trace);

  CountingSink rx;
  auto ap = med.attach({0, 0}, 6, 20.0);
  auto phone = med.attach({25, 0}, 6, 15.0, &rx);
  (void)phone;

  const dot11::MacAddress bssid({0x02, 0xaa, 0, 0, 0, 1});
  const dot11::MacAddress client({0x02, 0xbb, 0, 0, 0, 2});

  dot11::Frame scratch;
  std::uint16_t seq = 0;
  const auto send_one = [&] {
    dot11::make_probe_response_into(scratch, bssid, client, "golden-cafe", 6,
                                    /*open=*/true, seq = (seq + 1) & 0x0fff);
    ap.transmit(scratch);
    events.run_all();
  };

  for (int i = 0; i < 256; ++i) send_one();
  const std::uint64_t frames_before = rx.frames;
  const std::uint64_t recorded_before = trace.total_recorded();

  constexpr std::uint64_t kFrames = 1000;
  const std::uint64_t allocs_before = bench::alloc_count();
  for (std::uint64_t i = 0; i < kFrames; ++i) send_one();
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;

  EXPECT_EQ(rx.frames - frames_before, kFrames);
  // Each frame traces at least its transmit + deliver, so tracing was live.
  EXPECT_GE(trace.total_recorded() - recorded_before, 2 * kFrames);
  EXPECT_LE(allocs, kFrames * kBudgetPerFrame + kFrames / 100)
      << "tracing-enabled hot path exceeded the allocation ceiling: "
      << allocs << " allocations for " << kFrames << " frames";
}

// Deliver-throughput floor on the grid pipeline (the Medium default):
// a 1024-radio crowd fanning broadcast probes out to ~30 neighbours each
// must sustain a floor set ~25x below what this path measures on a single
// modest core (≥1M deliveries/s in bench/fig_sharded_city's 1-shard rows),
// so only a wholesale regression — e.g. the per-frame sort or exact log10
// creeping back into the fanout — trips it, not scheduler jitter. The same
// loop enforces the ≤1 allocation/frame ceiling on the batched path.
TEST(PerfSmokeTest, BatchedDeliverThroughputStaysAboveFloor) {
  medium::EventQueue events;
  medium::Medium med(events);  // default config == grid pipeline

  CountingSink rx;
  std::vector<medium::Radio> radios;
  constexpr int kSide = 32;  // 1024 radios, 18 m pitch
  radios.reserve(kSide * kSide);
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      radios.push_back(med.attach({x * 18.0, y * 18.0}, 6, 20.0, &rx));
    }
  }

  const dot11::Frame probe = dot11::make_broadcast_probe_request(
      dot11::MacAddress({0x02, 0xcc, 0, 0, 0, 3}));
  std::size_t next = 0;
  const auto send_one = [&] {
    radios[next].transmit(probe);
    next = (next + 1) % radios.size();
    events.run_all();
  };

  for (int i = 0; i < 256; ++i) send_one();  // warm pools, slab, scratch

  constexpr std::uint64_t kTransmits = 2000;
  const std::uint64_t frames_before = rx.frames;
  const std::uint64_t allocs_before = bench::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kTransmits; ++i) send_one();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;
  const std::uint64_t delivered = rx.frames - frames_before;

  ASSERT_GT(delivered, kTransmits * 10)
      << "crowd geometry must actually fan out";
  constexpr double kFloorDeliveriesPerSec = 50'000.0;
  EXPECT_GE(static_cast<double>(delivered) / wall_s, kFloorDeliveriesPerSec)
      << delivered << " deliveries in " << wall_s << " s";
  EXPECT_LE(allocs, kTransmits * kBudgetPerFrame)
      << "grid fanout exceeded the per-frame allocation budget: " << allocs
      << " allocations for " << kTransmits << " transmitted frames";
}

// Checkpointing must stay close to free at the default cadence: on the fig6
// mix scaled to smoke size (all 4 venues, the first 6 hourly slots each,
// 1-min runs), run serially with a checkpoint file every 8 runs, the writer
// encodes each completed run's entry exactly once and reuses it at every
// later write. A writer that re-encodes every completed run at each write
// encodes 8 + 16 + 24 = 48 entries here. The gate counts work rather than
// timing it: fsync-bound checkpoint time over the pass's wall tightens with
// every loop speedup and crosses a fixed bound on slow fsyncs alone.
TEST(PerfSmokeTest, CheckpointCadenceEncodesEachRunOnce) {
  const sim::World world(small_scenario(42));

  const mobility::VenueConfig venues[] = {
      mobility::subway_passage_venue(), mobility::canteen_venue(),
      mobility::shopping_center_venue(), mobility::railway_station_venue()};
  std::vector<sim::RunConfig> runs;
  for (int venue_index = 0; venue_index < 4; ++venue_index) {
    for (int slot = 0; slot < 6; ++slot) {
      sim::RunConfig run;
      run.kind = sim::AttackerKind::kCityHunter;
      run.venue = venues[venue_index];
      run.slot.expected_clients =
          run.venue.hourly_clients[static_cast<std::size_t>(slot)];
      run.duration = support::SimTime::minutes(1);
      run.run_seed = static_cast<std::uint64_t>(venue_index * 100 + slot + 1);
      runs.push_back(std::move(run));
    }
  }

  const std::string ckpt_path =
      std::string(::testing::TempDir()) + "perf_cadence.ckpt";
  sim::ParallelConfig checkpointed{1};
  checkpointed.checkpoint_path = ckpt_path;
  checkpointed.checkpoint_every = 8;

  sim::ParallelStats stats;
  (void)sim::run_campaigns(world, runs, checkpointed, &stats);
  std::remove(ckpt_path.c_str());

  // 24 runs at cadence 8: the boundary writes at 8, 16, 24 and no others,
  // one entry encoded per run.
  EXPECT_EQ(stats.checkpoint_writes, 3u);
  EXPECT_EQ(stats.checkpoint_write_failures, 0u);
  EXPECT_EQ(stats.checkpoint_entries_encoded, 24u);
}

// The sharded city's scaling claim (ISSUE 10 acceptance): on a >= 4-thread
// host, the 4-shard city must deliver at >= 3x the single-Medium throughput
// — with byte-identical deliveries, asserted before any timing is trusted.
// The smoke shrinks the acceptance scenario's 100k radios to 20k so ctest
// stays fast; the geometry, the conservative barrier and the handoff
// machinery are exactly the full-size ones. Skipped below 4 hardware
// threads and under sanitizers, like every timing assertion in this file.
TEST(PerfSmokeTest, ShardedCityScalesOnMulticore) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "sanitizer build: timing assertions are meaningless";
#else
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have " << hw;
  }
  sim::ShardedCityConfig cfg;  // default 8x2 districts, 136 m gaps
  cfg.radios = 20000;
  cfg.duration = support::SimTime::seconds(8.0);

  const auto best_of = [](const sim::ShardedCityConfig& c) {
    sim::ShardedCityResult best = sim::run_sharded_city(c);
    sim::ShardedCityResult again = sim::run_sharded_city(c);
    if (again.wall_s < best.wall_s) best = std::move(again);
    return best;
  };
  auto single_cfg = cfg;
  single_cfg.shards = 1;
  auto sharded_cfg = cfg;
  sharded_cfg.shards = 4;
  sharded_cfg.workers = 4;
  const auto single = best_of(single_cfg);
  const auto sharded = best_of(sharded_cfg);

  // Byte-identical output is non-negotiable regardless of timing.
  ASSERT_GT(single.deliveries, 0u);
  ASSERT_EQ(single.transmissions, sharded.transmissions);
  ASSERT_EQ(single.deliveries, sharded.deliveries);
  ASSERT_EQ(single.gap_silences, sharded.gap_silences);
  ASSERT_EQ(single.delivery_digest, sharded.delivery_digest);

  EXPECT_GE(single.wall_s / sharded.wall_s, 3.0)
      << "4-shard city must deliver >= 3x the single-Medium throughput: "
      << "single " << single.wall_s << " s, sharded " << sharded.wall_s
      << " s (" << sharded.handoffs << " handoffs)";
#endif
}

TEST(PerfSmokeTest, UnicastTrainLoadsOnlyAddresseeAndMonitors) {
  // The paper's 40-response train to one phone among 200 addressed phones
  // and one monitor, all in range of the AP: the medium hands each frame
  // to the addressee and the monitor and never enumerates the other
  // phones. A deterministic work count, no timing.
  medium::EventQueue events;
  medium::Medium med(events);
  auto ap = med.attach({0, 0}, 6, 20.0);  // sinkless: not a listener
  std::vector<CountingSink> phones(200);
  for (std::size_t i = 0; i < phones.size(); ++i) {
    const double angle = 0.0314 * static_cast<double>(i);
    auto radio = med.attach({20.0 * std::cos(angle), 20.0 * std::sin(angle)},
                            6, 15.0, &phones[i]);
    radio.set_rx_address(dot11::MacAddress(
        {0x02, 0xc1, 0, 0, static_cast<std::uint8_t>(i >> 8),
         static_cast<std::uint8_t>(i)}));
  }
  CountingSink monitor;
  med.attach({5, 5}, 6, 15.0, &monitor);

  constexpr std::size_t kTarget = 117;
  const dot11::MacAddress bssid({0x0a, 0x7e, 0x64, 0xc1, 0x7e, 0x01});
  const dot11::MacAddress victim({0x02, 0xc1, 0, 0, 0, kTarget});
  constexpr int kTrain = 40;
  const auto loaded0 = med.fanout_stats().candidates_loaded;
  for (int i = 0; i < kTrain; ++i) {
    ap.transmit(dot11::make_probe_response(bssid, victim,
                                           "SSID-" + std::to_string(i), 6,
                                           true));
  }
  events.run_all();

  for (std::size_t i = 0; i < phones.size(); ++i) {
    EXPECT_EQ(phones[i].frames, i == kTarget ? std::uint64_t{kTrain} : 0u)
        << "phone " << i;
  }
  EXPECT_EQ(monitor.frames, static_cast<std::uint64_t>(kTrain));
  EXPECT_EQ(med.deliveries(), 2u * kTrain);
  const auto& stats = med.fanout_stats();
  EXPECT_EQ(stats.unicast, static_cast<std::uint64_t>(kTrain));
  EXPECT_EQ(stats.unicast_unheard, 0u);
  EXPECT_LE(stats.candidates_loaded - loaded0, 3u * kTrain);
}

TEST(PerfSmokeTest, FrameSlotKeepsIeStorageAcrossSubtypes) {
  // The Medium parses every transmission into a pooled Frame, and a probe
  // request often lands in a slot that last held a probe response. The
  // slot must carry its IE storage across the subtype switch.
  const dot11::MacAddress bssid({0x02, 0xaa, 0, 0, 0, 1});
  const dot11::MacAddress client({0x02, 0xbb, 0, 0, 0, 2});
  const auto request = dot11::serialize(
      dot11::make_direct_probe_request(client, "golden-cafe"));
  const auto response = dot11::serialize(dot11::make_probe_response(
      bssid, client, "golden-cafe", 6, /*open=*/true));
  dot11::Frame slot;
  for (int i = 0; i < 8; ++i) {  // warm: grow the storage to its peak
    ASSERT_TRUE(dot11::parse_into(request, slot));
    ASSERT_TRUE(dot11::parse_into(response, slot));
  }
  const std::uint64_t allocs_before = bench::alloc_count();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(dot11::parse_into(i % 2 == 0 ? request : response, slot));
  }
  EXPECT_EQ(bench::alloc_count() - allocs_before, 0u);
  EXPECT_EQ(slot.subtype(), dot11::MgmtSubtype::kProbeResponse);
}

// Classifying a probe request reads its SSID in place. A 32-byte SSID is
// too long for a small-string buffer, so a copy would allocate.
TEST(PerfSmokeTest, ProbeClassificationAllocatesNothing) {
  const auto probe = dot11::make_direct_probe_request(
      dot11::MacAddress({0x02, 0xbb, 0, 0, 0, 2}), std::string(32, 's'));
  const auto* body = probe.as<dot11::ProbeRequest>();
  ASSERT_NE(body, nullptr);
  const std::uint64_t allocs_before = bench::alloc_count();
  const bool broadcast = body->is_broadcast();
  EXPECT_EQ(bench::alloc_count() - allocs_before, 0u);
  EXPECT_FALSE(broadcast);
}

// The whole venue loop with a warm attacker: a City-Hunter with 2,000
// seeded SSIDs answers 50 static phones that scan every 20 s and never
// join. Once two simulated minutes have grown every pool, table and
// per-client array to its working size, the next ten minutes — probe,
// selection, the 40-response train, delivery, the phones' scan state
// machine and their timers — must allocate at most once per 100
// transmissions. A count, not a timing.
TEST(PerfSmokeTest, WarmVenueLoopAllocatesNothingPerTransmission) {
  medium::EventQueue events;
  medium::Medium med(events);
  core::CityHunter::Config cfg;
  cfg.base.bssid = dot11::MacAddress({0x0a, 0x7e, 0x64, 0xc1, 0x7e, 0x01});
  core::CityHunter hunter(med, cfg, support::Rng(7));
  for (int i = 0; i < 2000; ++i) {
    hunter.database().add("seed-" + std::to_string(i),
                          static_cast<double>(2000 - i),
                          core::SsidSource::kWiglePopular,
                          support::SimTime::zero());
  }
  hunter.start();

  client::SmartphoneConfig phone_cfg;
  phone_cfg.mean_scan_interval = support::SimTime::seconds(20);
  std::vector<std::unique_ptr<client::Smartphone>> phones;
  for (int i = 0; i < 50; ++i) {
    world::Person person;
    person.id = static_cast<std::uint64_t>(i + 1);
    person.pnl = {{"home-" + std::to_string(i), true,
                   world::PnlOrigin::kHome}};
    const double angle = 0.125 * i;
    phones.push_back(std::make_unique<client::Smartphone>(
        std::move(person), med,
        medium::Position{15.0 * std::cos(angle), 15.0 * std::sin(angle)},
        phone_cfg, support::Rng(100 + static_cast<std::uint64_t>(i))));
    phones.back()->start();
  }

  events.run_until(support::SimTime::minutes(2));
  const std::uint64_t tx_before = med.transmissions();
  const std::uint64_t allocs_before = bench::alloc_count();
  events.run_until(support::SimTime::minutes(12));
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;
  const std::uint64_t tx = med.transmissions() - tx_before;

  ASSERT_GT(tx, 50'000u) << "every phone must keep scanning and be answered";
  EXPECT_EQ(hunter.clients_connected(), 0u);
  EXPECT_LE(allocs * 100, tx)
      << allocs << " allocations for " << tx << " transmissions";
}

// The same loop with everything a venue run has: arrivals, groups, walkers,
// direct probers, joins and a database that learns. Four sim::VenueRuns
// (slot 4 of each venue, 10 simulated minutes) may allocate at most once per
// transmission inside run_until. What remains is per spawned phone (its
// Person and PNL, its first probe's IEs, its ClientRecord), not per frame.
TEST(PerfSmokeTest, VenueLoopStaysUnderOneAllocationPerTransmission) {
  sim::ScenarioConfig scenario;
  scenario.seed = 42;
  const sim::World world(scenario);
  const mobility::VenueConfig venues[] = {
      mobility::subway_passage_venue(), mobility::canteen_venue(),
      mobility::shopping_center_venue(), mobility::railway_station_venue()};
  for (const auto& venue : venues) {
    SCOPED_TRACE(venue.name);
    sim::RunConfig cfg;
    cfg.venue = venue;
    cfg.slot.expected_clients = venue.hourly_clients[4];
    cfg.duration = support::SimTime::minutes(10);
    cfg.run_seed = 5;
    sim::VenueRun run(world, cfg);

    const std::uint64_t allocs_before = bench::alloc_count();
    run.events().run_until(cfg.duration);
    const std::uint64_t allocs = bench::alloc_count() - allocs_before;
    const std::uint64_t tx = run.medium().transmissions();

    ASSERT_GT(tx, 1000u);
    ASSERT_GT(run.population().clients_spawned(), 10u);
    EXPECT_LE(allocs, tx) << allocs << " allocations for " << tx
                          << " transmissions, "
                          << run.population().clients_spawned() << " phones";
  }
}

// City sampling draws from district tables CityModel builds once, so a draw
// allocates nothing.
TEST(PerfSmokeTest, CitySamplingAllocatesNothing) {
  const world::CityModel city;
  support::Rng rng(11);
  const std::uint64_t allocs_before = bench::alloc_count();
  for (int i = 0; i < 1000; ++i) {
    (void)city.sample_location(rng);
    (void)city.sample_location_of_kind(
        rng, static_cast<world::DistrictKind>(i % world::kDistrictKinds));
  }
  EXPECT_EQ(bench::alloc_count() - allocs_before, 0u);
}

// The default World — 50,000 photos, ~10,000 APs, the WiGLE snapshot and
// the offline seed lists — within a tenth of the 164,458 allocations it
// made while every city draw built its own district tables.
TEST(PerfSmokeTest, DefaultWorldBuildStaysUnderAllocationBudget) {
  sim::ScenarioConfig scenario;
  scenario.seed = 42;
  const std::uint64_t allocs_before = bench::alloc_count();
  const sim::World world(scenario);
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;
  EXPECT_LE(allocs * 10, 164'458u) << allocs << " allocations";
}

// A VenueRun builds its own setup from the World's offline lists: one
// canteen run's construction, after a warm-up, stays within 400
// allocations. It made about 300 once the lists moved into the World; when
// every run ranked the whole WiGLE snapshot it made 1,414.
TEST(PerfSmokeTest, VenueRunSetupStaysUnderAllocationBudget) {
  sim::ScenarioConfig scenario;
  scenario.seed = 42;
  const sim::World world(scenario);
  sim::RunConfig cfg;
  cfg.venue = mobility::canteen_venue();
  cfg.slot.expected_clients = cfg.venue.hourly_clients[4];
  cfg.duration = support::SimTime::minutes(10);
  const auto construction_allocs = [&] {
    const std::uint64_t before = bench::alloc_count();
    const sim::VenueRun run(world, cfg);
    return bench::alloc_count() - before;
  };
  (void)construction_allocs();  // warm-up
  const std::uint64_t allocs = construction_allocs();
  EXPECT_LE(allocs, 400u) << allocs << " allocations";
}

TEST(PerfSmokeTest, CounterIsLive) {
  // Guard against the counter silently compiling out (e.g. the macro not
  // reaching this target): an explicit heap allocation must register.
  const std::uint64_t before = bench::alloc_count();
  auto* p = new std::uint64_t(42);
  const std::uint64_t after = bench::alloc_count();
  delete p;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace cityhunter
