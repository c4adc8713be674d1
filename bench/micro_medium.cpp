// Micro-benchmarks for the Medium delivery hot path.
//
// Prices the grid delivery pipeline against the legacy-scan oracle at venue
// scale: radios are spread over ±600 m while a 20 dBm transmitter reaches
// only ~60 m, so receiver culling dominates the fanout cost.
//
//   Batched      — channel-partitioned grid probe, squared-distance filter,
//                  slot-ordered merge (no per-frame sort), path-loss LUT.
//   LegacyScan   — no grid at all, full scan over every attached radio with
//                  exact hypot/log10 per candidate.
//
// The moving variant displaces one radio before each transmit to price the
// incremental grid maintenance into the win; the lossy variant turns the
// fault model on (lossy_campaign's 20% ambient loss, 8% corruption), so
// every transmit makes its keyed TX-side fault draws and every delivery its
// link erasure draw.
//
// DeliverStationProbe prices a phone's broadcast probe request in a crowd
// of N phones around one attacker: phones register as stations, which do not
// receive probe requests, so each frame reaches the attacker alone (a
// fanout that handed it to every phone would make N + 1 deliveries).
//
// EventQueueStep prices one event at a fixed queue depth: the popped event
// posts its replacement at a random delay. 485 is about a venue run's peak
// depth; 40,000 a 20k-radio city's order.
//
// FaultStream prices a lossy transmission's TX-side fault draws alone: the
// key hashed from (seed, radio, sequence), then a broadcast's one
// corruption draw or a unicast first attempt's collision and corruption
// draws. RngUniform and RngFork price the engine under every Rng: one
// uniform draw from a long-lived stream, and one labelled fork of a freshly
// built parent.
//
// Each case reports allocs_per_tx next to delivered_per_tx: the pooled
// transmission objects, inline event storage, flat radio table and reused
// fanout scratch should hold the static cases at ~0 heap allocations per
// transmit. delivered_per_tx must be identical across all modes at the same
// radio count — the pipelines are behaviorally interchangeable.
#include "alloc_counter.h"

#include <benchmark/benchmark.h>

#include "dot11/frame.h"
#include "medium/event_queue.h"
#include "medium/fault.h"
#include "medium/medium.h"
#include "support/rng.h"

namespace cityhunter::medium {
namespace {

class CountingSink : public FrameSink {
 public:
  void on_frame(const dot11::Frame&, const RxInfo&) override { ++frames; }
  std::uint64_t frames = 0;
};

enum class Mode { kBatched, kBatchedLossy, kLegacyScan };

/// lossy_campaign's channel.
FaultModel::Config lossy_fault() {
  FaultModel::Config cfg;
  cfg.enabled = true;
  cfg.ambient_loss = 0.2;
  cfg.corruption_rate = 0.08;
  return cfg;
}

Medium::Config mode_config(Mode mode) {
  Medium::Config cfg;
  switch (mode) {
    case Mode::kBatched:
      break;  // defaults: grid + LUT
    case Mode::kBatchedLossy:
      cfg.fault = lossy_fault();
      break;
    case Mode::kLegacyScan:
      cfg.spatial_grid = false;
      break;
  }
  return cfg;
}

struct Crowd {
  EventQueue events;
  Medium medium;
  CountingSink sink;
  std::vector<Radio> receivers;
  Radio tx;

  /// mixed_channels spreads receivers over 1/6/11 (the urban channel plan)
  /// instead of co-channel with the transmitter — the workload where the
  /// channel-partitioned index stops paying for off-channel neighbours.
  Crowd(int radios, Mode mode, bool mixed_channels = false)
      : medium(events, mode_config(mode)) {
    support::Rng rng(7);
    const std::uint8_t channels[] = {1, 6, 11};
    for (int i = 0; i < radios; ++i) {
      const std::uint8_t ch = mixed_channels ? channels[rng.index(3)] : 6;
      receivers.push_back(medium.attach(
          {rng.uniform(-600.0, 600.0), rng.uniform(-600.0, 600.0)}, ch, 15.0,
          &sink));
    }
    tx = medium.attach({0, 0}, 6, 20.0);
  }
};

void deliver_loop(benchmark::State& state, Mode mode, bool move,
                  bool mixed_channels = false) {
  Crowd crowd(static_cast<int>(state.range(0)), mode, mixed_channels);
  support::Rng rng(11);
  const auto frame = dot11::make_probe_response(
      dot11::MacAddress::random_local(rng), dot11::MacAddress::random_local(rng),
      "bench-ssid", 6, true);
  std::size_t mover = 0;
  // One warm transmit outside the timed loop fills the transmission pool,
  // event slab and deliver scratch.
  crowd.tx.transmit(frame);
  crowd.events.run_all();
  const auto a0 = cityhunter::bench::alloc_count();
  const auto loaded0 = crowd.medium.fanout_stats().candidates_loaded;
  for (auto _ : state) {
    if (move) {
      auto& r = crowd.receivers[mover++ % crowd.receivers.size()];
      r.set_position({rng.uniform(-600.0, 600.0), rng.uniform(-600.0, 600.0)});
    }
    crowd.tx.transmit(frame);
    crowd.events.run_all();
  }
  state.SetItemsProcessed(state.iterations());
  const double iters = static_cast<double>(state.iterations());
  state.counters["delivered_per_tx"] =
      static_cast<double>(crowd.sink.frames) / iters;
  state.counters["allocs_per_tx"] =
      static_cast<double>(cityhunter::bench::alloc_count() - a0) / iters;
  // Bucket entries the grid probes streamed through the range filter (0 on
  // the legacy scan, which has no index).
  const auto loaded = crowd.medium.fanout_stats().candidates_loaded - loaded0;
  state.counters["candidates_per_tx"] = static_cast<double>(loaded) / iters;
}

/// Retune-dominated churn: every iteration hops one receiver to the next
/// channel in the 1/6/11 plan (a bucket-to-bucket migration under the
/// partitioned index) and every kTransmitEvery-th iteration broadcasts.
/// Prices the append-and-deferred-merge insert against the churn rate.
void churn_loop(benchmark::State& state) {
  constexpr int kTransmitEvery = 8;
  Crowd crowd(static_cast<int>(state.range(0)), Mode::kBatched,
              /*mixed_channels=*/true);
  support::Rng rng(11);
  const auto frame = dot11::make_probe_response(
      dot11::MacAddress::random_local(rng),
      dot11::MacAddress::random_local(rng), "bench-ssid", 6, true);
  const std::uint8_t channels[] = {1, 6, 11};
  std::size_t tick = 0;
  crowd.tx.transmit(frame);
  crowd.events.run_all();
  const auto a0 = cityhunter::bench::alloc_count();
  for (auto _ : state) {
    auto& r = crowd.receivers[tick % crowd.receivers.size()];
    r.set_channel(channels[tick % 3]);
    if (tick % kTransmitEvery == 0) {
      crowd.tx.transmit(frame);
      crowd.events.run_all();
    }
    ++tick;
  }
  state.SetItemsProcessed(state.iterations());
  const double iters = static_cast<double>(state.iterations());
  state.counters["allocs_per_op"] =
      static_cast<double>(cityhunter::bench::alloc_count() - a0) / iters;
  state.counters["delivered"] = static_cast<double>(crowd.sink.frames);
}

/// Attach/detach storm: each iteration detaches the oldest live receiver
/// and attaches a fresh one (slot growth, bucket create/recycle, arena
/// compaction); periodic transmits keep the probe path honest.
void attach_churn_loop(benchmark::State& state) {
  constexpr int kTransmitEvery = 8;
  Crowd crowd(static_cast<int>(state.range(0)), Mode::kBatched,
              /*mixed_channels=*/true);
  support::Rng rng(11);
  const auto frame = dot11::make_probe_response(
      dot11::MacAddress::random_local(rng),
      dot11::MacAddress::random_local(rng), "bench-ssid", 6, true);
  const std::uint8_t channels[] = {1, 6, 11};
  std::size_t tick = 0;
  crowd.tx.transmit(frame);
  crowd.events.run_all();
  for (auto _ : state) {
    auto& victim = crowd.receivers[tick % crowd.receivers.size()];
    if (victim.valid()) crowd.medium.detach(victim);
    victim = crowd.medium.attach(
        {rng.uniform(-600.0, 600.0), rng.uniform(-600.0, 600.0)},
        channels[tick % 3], 15.0, &crowd.sink);
    if (tick % kTransmitEvery == 0) {
      crowd.tx.transmit(frame);
      crowd.events.run_all();
    }
    ++tick;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["delivered"] = static_cast<double>(crowd.sink.frames);
}

void BM_DeliverBatched(benchmark::State& state) {
  deliver_loop(state, Mode::kBatched, /*move=*/false);
}
void BM_DeliverBatchedLossy(benchmark::State& state) {
  deliver_loop(state, Mode::kBatchedLossy, /*move=*/false);
}
void BM_DeliverLegacyScan(benchmark::State& state) {
  deliver_loop(state, Mode::kLegacyScan, /*move=*/false);
}
void BM_DeliverBatchedMoving(benchmark::State& state) {
  deliver_loop(state, Mode::kBatched, /*move=*/true);
}
// Channel-mixed crowd: the partitioned index streams only the third of the
// crowd on the transmitter's channel (1/6/11 plan).
void BM_DeliverBatchedChannelMixed(benchmark::State& state) {
  deliver_loop(state, Mode::kBatched, /*move=*/false,
               /*mixed_channels=*/true);
}
void BM_ChurnSetChannelStorm(benchmark::State& state) {
  churn_loop(state);
}
void BM_ChurnAttachDetach(benchmark::State& state) {
  attach_churn_loop(state);
}

void BM_DeliverStationProbe(benchmark::State& state) {
  EventQueue events;
  Medium medium(events);
  CountingSink sink;
  support::Rng rng(7);
  const auto n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {  // N listening phones, then the sender
    const dot11::MacAddress mac(
        {0x02, 0x5a, 0, 0, static_cast<std::uint8_t>(i >> 8),
         static_cast<std::uint8_t>(i)});
    medium.attach({rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)}, 6,
                  15.0, &sink, mac, RxRole::kStation);
  }
  const dot11::MacAddress sender_mac({0x02, 0x5a, 0xff, 0, 0, 1});
  Radio sender = medium.attach({0, 0}, 6, 15.0, &sink, sender_mac,
                               RxRole::kStation);
  medium.attach({5, 5}, 6, 20.0, &sink);  // the attacker: a monitor
  const auto frame = dot11::make_broadcast_probe_request(sender_mac);
  sender.transmit(frame);
  events.run_all();
  const auto frames0 = sink.frames;
  const auto loaded0 = medium.fanout_stats().candidates_loaded;
  const auto a0 = cityhunter::bench::alloc_count();
  for (auto _ : state) {
    sender.transmit(frame);
    events.run_all();
  }
  state.SetItemsProcessed(state.iterations());
  const double iters = static_cast<double>(state.iterations());
  state.counters["delivered_per_tx"] =
      static_cast<double>(sink.frames - frames0) / iters;
  state.counters["candidates_per_tx"] =
      static_cast<double>(medium.fanout_stats().candidates_loaded - loaded0) /
      iters;
  state.counters["allocs_per_tx"] =
      static_cast<double>(cityhunter::bench::alloc_count() - a0) / iters;
}

/// Posts its replacement, `delays` apart, when it fires.
struct Repost {
  EventQueue* queue;
  const std::vector<std::int64_t>* delays;
  std::size_t* next;
  void operator()() const {
    const std::int64_t d = (*delays)[(*next)++ % delays->size()];
    queue->post_in(SimTime::microseconds(d), *this);
  }
};

void BM_EventQueueStep(benchmark::State& state) {
  EventQueue q;
  support::Rng rng(3);
  std::vector<std::int64_t> delays(4096);
  for (auto& d : delays) d = static_cast<std::int64_t>(rng.index(2'000'000));
  std::size_t next = 0;
  const Repost repost{&q, &delays, &next};
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    q.post_in(SimTime::microseconds(delays[next++ % delays.size()]), repost);
  }
  for (auto _ : state) benchmark::DoNotOptimize(q.step());
  state.SetItemsProcessed(state.iterations());
  state.counters["pending"] = static_cast<double>(q.pending());
}

void BM_FaultStream(benchmark::State& state) {
  const FaultModel fault(lossy_fault());
  const bool unicast = state.range(0) != 0;
  std::uint64_t seq = 0;
  std::uint64_t lost = 0;
  for (auto _ : state) {
    const FaultModel::TxKey key = fault.tx_key(7, seq++);
    const bool collided = unicast && fault.collides(key, 0);
    const bool corrupted = fault.corrupts(key, 0);
    lost += collided || corrupted ? 1 : 0;
    benchmark::DoNotOptimize(lost);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["lost_ratio"] =
      static_cast<double>(lost) / static_cast<double>(state.iterations());
}

void BM_RngUniform(benchmark::State& state) {
  support::Rng rng(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
  state.SetItemsProcessed(state.iterations());
}

void BM_RngFork(benchmark::State& state) {
  const support::Rng parent(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    support::Rng child = parent.fork("mobility");
    benchmark::DoNotOptimize(child);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_DeliverBatched)->Arg(100)->Arg(1000)->Arg(4000)->Arg(10000);
BENCHMARK(BM_DeliverBatchedLossy)->Arg(100)->Arg(1000)->Arg(4000);
BENCHMARK(BM_DeliverStationProbe)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_EventQueueStep)->Arg(485)->Arg(8000)->Arg(40000);
BENCHMARK(BM_FaultStream)->ArgName("unicast")->Arg(0)->Arg(1);
BENCHMARK(BM_RngUniform)->Arg(42);
BENCHMARK(BM_RngFork)->Arg(42);
BENCHMARK(BM_DeliverLegacyScan)->Arg(100)->Arg(1000)->Arg(4000);
BENCHMARK(BM_DeliverBatchedMoving)->Arg(1000)->Arg(4000);
BENCHMARK(BM_DeliverBatchedChannelMixed)->Arg(1000)->Arg(4000)->Arg(20000);
BENCHMARK(BM_ChurnSetChannelStorm)->Arg(1000)->Arg(10000);
BENCHMARK(BM_ChurnAttachDetach)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace cityhunter::medium

BENCHMARK_MAIN();
