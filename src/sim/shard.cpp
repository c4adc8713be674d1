#include "sim/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "dot11/frame.h"
#include "medium/event_queue.h"
#include "medium/propagation.h"
#include "mobility/district_walk.h"
#include "sim/shard_barrier.h"
#include "support/rng.h"
#include "support/parallel_for.h"

namespace cityhunter::sim {
namespace {

using medium::Position;
using support::Rng;
using support::SimTime;
using Clock = std::chrono::steady_clock;

constexpr std::uint8_t kChannels[] = {1, 6, 11};
constexpr std::int64_t kBeaconIntervalUs = 102400;  // 802.11 default TBTT
constexpr std::int64_t kScanBaseUs = 1'500'000;     // probe every 1.5–2.5 s
constexpr std::int64_t kScanJitterUs = 1'000'000;
/// Safety margin past the walker-penetration bound when sizing epochs.
constexpr double kContainmentMarginM = 2.0;

/// Global (world-level) ids ride in the frames themselves: every entity
/// transmits from a locally administered MAC that encodes its id, so a
/// receiving sink can attribute the delivery without any cross-shard state.
dot11::MacAddress mac_from_gid(std::uint64_t gid) {
  return dot11::MacAddress({0x02, static_cast<std::uint8_t>(gid >> 32),
                            static_cast<std::uint8_t>(gid >> 24),
                            static_cast<std::uint8_t>(gid >> 16),
                            static_cast<std::uint8_t>(gid >> 8),
                            static_cast<std::uint8_t>(gid)});
}

std::uint64_t gid_from_mac(const dot11::MacAddress& m) {
  const auto& o = m.octets();
  std::uint64_t v = 0;
  for (int i = 1; i < 6; ++i) v = (v << 8) | o[static_cast<std::size_t>(i)];
  return v;
}

struct Shard;

/// Logs every delivered frame with global ids. One sink per radio, kept in
/// its shard's dense `sinks` deque rather than inside the ~5.4 KB Entity:
/// the Medium calls a sink on every delivery, and 24-byte sinks packed in
/// attach order keep those calls on cache-resident lines. A handoff gives
/// the entity a fresh sink in the destination shard; the old one stays
/// behind, unregistered, with the dead entity.
struct RecordingSink final : medium::FrameSink {
  RecordingSink(obs::DeliveryLog* log_, std::uint64_t rx_gid_)
      : log(log_), rx_gid(rx_gid_) {}
  obs::DeliveryLog* log;
  std::uint64_t rx_gid;
  void on_frame(const dot11::Frame& frame,
                const medium::RxInfo& info) override {
    log->record(info.time.us(), gid_from_mac(frame.header.addr2), rx_gid,
                info.rssi_dbm, info.channel);
  }
};

/// Everything that crosses a shard boundary with a mobile client. Each
/// stream (walker waypoints, probe jitter) is a private fork keyed by the
/// global id, so the agent behaves identically wherever it is simulated.
struct PhoneAgent {
  std::uint64_t gid = 0;
  mobility::DistrictWalker walker;
  Rng scan_rng{0};
  dot11::Frame probe;
  std::int64_t next_scan_us = 0;
  std::int64_t next_walk_us = 0;
  medium::Medium::RadioSnapshot radio{};
};

class ShardedCity;

struct Entity {
  Shard* home = nullptr;
  medium::Radio radio;
  bool is_ap = false;
  /// Cleared when the entity is handed off; its already-queued events fire
  /// once more as no-ops (cheaper than cancellable handles on this volume).
  bool alive = true;
  /// Set when a walk tick sees a foreign owner; the barrier re-checks.
  bool marked = false;
  // AP-only:
  dot11::Frame beacon;
  std::int64_t next_beacon_us = 0;
  // Phone-only:
  PhoneAgent agent;
};

struct Shard {
  Shard(ShardedCity* city_, int index_, const medium::Medium::Config& mcfg,
        bool keep_deliveries)
      : city(city_), index(index_), medium(events, mcfg),
        log(keep_deliveries) {}

  ShardedCity* city;
  int index;
  medium::EventQueue events;
  medium::Medium medium;
  obs::DeliveryLog log;
  /// Deques: entity addresses are captured in queued events and sink
  /// addresses are registered with the Medium, so neither may move.
  std::deque<Entity> entities;
  std::deque<RecordingSink> sinks;
  std::vector<Entity*> emigrants;  // marked this epoch, in event order
  std::uint64_t handoffs_in = 0;
  std::uint64_t handoffs_out = 0;
  std::uint64_t gap_silences = 0;
  /// Barrier accounting, in whole clock ticks so that busy + wait sums to
  /// exactly the same epoch wall for every shard: this epoch's run_until
  /// time, and the run's totals of it and of the rest of each epoch.
  Clock::duration epoch_busy{};
  Clock::duration busy{};
  Clock::duration wait{};
  std::exception_ptr error;
};

class ShardedCity {
 public:
  explicit ShardedCity(const ShardedCityConfig& cfg)
      : cfg_(cfg), grid_(cfg.grid) {
    validate();
    build();
  }

  ShardedCityResult run();

 private:
  void validate();
  void build();
  Entity& make_entity(Shard& shard);
  RecordingSink* make_sink(Shard& shard, std::uint64_t gid);
  void schedule_beacon(Entity* e);
  void schedule_scan(Entity* e);
  void schedule_walk(Entity* e);
  void advance_shard(Shard& shard, SimTime until);
  void advance_epoch(SimTime until);
  void exchange_handoffs();

  ShardedCityConfig cfg_;
  world::DistrictGrid grid_;
  SimTime epoch_{};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t workers_ = 1;
  std::uint64_t handoffs_ = 0;
};

void ShardedCity::validate() {
  if (cfg_.radios < 1) {
    throw std::invalid_argument("ShardedCity: radios must be >= 1");
  }
  if (cfg_.ap_fraction < 0.0 || cfg_.ap_fraction > 1.0) {
    throw std::invalid_argument("ShardedCity: ap_fraction outside [0, 1]");
  }
  if (cfg_.shards < 1 || cfg_.shards > grid_.cols() ||
      grid_.cols() % cfg_.shards != 0) {
    throw std::invalid_argument(
        "ShardedCity: shards must divide the district columns (" +
        std::to_string(grid_.cols()) + "), got " +
        std::to_string(cfg_.shards));
  }
  if (!(cfg_.phone_speed_mps > 0.0) || !(cfg_.walk_tick_s > 0.0)) {
    throw std::invalid_argument(
        "ShardedCity: phone speed and walk tick must be positive");
  }
  if (cfg_.medium.fault.enabled) {
    // Fault draws are keyed by the Medium-local radio id, which each shard
    // assigns in its own attach order and import_radio assigns afresh, so
    // loss patterns would depend on the shard count.
    throw std::invalid_argument(
        "ShardedCity: the fault model keys its draws by Medium-local radio "
        "ids, which differ between shard counts; disable medium.fault");
  }
  // RF-safety: the guard gap must contain max range twice plus the
  // worst-case walker penetration before handoff. max_safe_lookahead throws
  // when the gap cannot host any positive epoch; an explicit epoch must not
  // exceed the bound either.
  const double range_m = sharded_city_max_range_m(cfg_);
  const SimTime max_epoch = ConservativeBarrier::max_safe_lookahead(
      cfg_.grid.gap_m, range_m, cfg_.phone_speed_mps, cfg_.walk_tick_s,
      kContainmentMarginM);
  epoch_ = cfg_.epoch.us() > 0 ? cfg_.epoch : max_epoch;
  if (epoch_ > max_epoch) {
    throw std::invalid_argument(
        "ShardedCity: epoch " + std::to_string(epoch_.sec()) +
        " s exceeds the RF-safe lookahead " +
        std::to_string(max_epoch.sec()) + " s for gap " +
        std::to_string(cfg_.grid.gap_m) + " m / range " +
        std::to_string(range_m) + " m");
  }
}

Entity& ShardedCity::make_entity(Shard& shard) {
  Entity& e = shard.entities.emplace_back();
  e.home = &shard;
  return e;
}

RecordingSink* ShardedCity::make_sink(Shard& shard, std::uint64_t gid) {
  return &shard.sinks.emplace_back(&shard.log, gid);
}

void ShardedCity::build() {
  workers_ = cfg_.workers != 0
                 ? std::min<std::size_t>(cfg_.workers,
                                         static_cast<std::size_t>(cfg_.shards))
                 : std::min<std::size_t>(
                       static_cast<std::size_t>(cfg_.shards),
                       std::max<std::size_t>(
                           1, std::thread::hardware_concurrency()));
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(this, s, cfg_.medium,
                                              cfg_.keep_deliveries));
    if (cfg_.max_sim_events_per_shard > 0) {
      medium::RunGuard guard;
      guard.max_events = cfg_.max_sim_events_per_shard;
      shards_.back()->events.arm_guard(guard);
    }
  }

  // Entity builder. Every draw below comes from a stream forked from
  // (seed, gid): the build order is irrelevant, and so is which shard the
  // entity lands in — the bedrock of shard-count invariance. The root is
  // never drawn from, only forked (Rng::fork is const and state-snapshot
  // based, so fork order cannot perturb it either).
  const Rng root(cfg_.seed);
  const int n_aps = static_cast<int>(
      std::lround(static_cast<double>(cfg_.radios) * cfg_.ap_fraction));
  for (int gid = 0; gid < cfg_.radios; ++gid) {
    Rng er = root.fork("entity-" + std::to_string(gid));
    const std::uint64_t ugid = static_cast<std::uint64_t>(gid);
    const std::uint8_t channel = kChannels[er.index(3)];
    if (gid < n_aps) {
      // APs are pinned: round-robin over districts, uniform inside.
      const auto cell = grid_.cell(gid % grid_.districts());
      const Position pos = grid_.sample_in(cell, er);
      Shard& shard = *shards_[static_cast<std::size_t>(
          grid_.owner_shard(pos, cfg_.shards))];
      Entity& e = make_entity(shard);
      e.is_ap = true;
      e.beacon = dot11::make_beacon(mac_from_gid(ugid), "city-hunter-ap",
                                    channel, /*open=*/true,
                                    /*timestamp_us=*/0);
      e.next_beacon_us = static_cast<std::int64_t>(
          er.uniform(0.0, static_cast<double>(kBeaconIntervalUs)));
      e.radio = shard.medium.attach(pos, channel, cfg_.ap_tx_dbm,
                                    make_sink(shard, ugid));
      schedule_beacon(&e);
    } else {
      PhoneAgent agent;
      agent.gid = ugid;
      agent.walker = mobility::DistrictWalker(&grid_, er.fork("walk"),
                                              cfg_.phone_speed_mps);
      agent.scan_rng = er.fork("scan");
      agent.probe = dot11::make_broadcast_probe_request(mac_from_gid(ugid));
      agent.next_scan_us = static_cast<std::int64_t>(
          er.uniform(0.0, static_cast<double>(kScanBaseUs + kScanJitterUs)));
      agent.next_walk_us = static_cast<std::int64_t>(
          er.uniform(0.0, cfg_.walk_tick_s * 1e6));
      const Position pos = agent.walker.pos();
      Shard& shard = *shards_[static_cast<std::size_t>(
          grid_.owner_shard(pos, cfg_.shards))];
      Entity& e = make_entity(shard);
      e.agent = std::move(agent);
      e.radio = shard.medium.attach(pos, channel, cfg_.phone_tx_dbm,
                                    make_sink(shard, ugid));
      schedule_scan(&e);
      schedule_walk(&e);
    }
  }
}

void ShardedCity::schedule_beacon(Entity* e) {
  e->home->events.post_at(
      SimTime::microseconds(e->next_beacon_us), [this, e] {
        e->radio.transmit(e->beacon);
        e->next_beacon_us += kBeaconIntervalUs;
        schedule_beacon(e);
      });
}

void ShardedCity::schedule_scan(Entity* e) {
  e->home->events.post_at(
      SimTime::microseconds(e->agent.next_scan_us), [this, e] {
        if (!e->alive) return;  // handed off; the import rescheduled it
        // Gap silence: a client in a guard gap is out of range of every
        // district anyway (that's what the gap width guarantees), so
        // skipping the probe costs nothing observable — and it is what
        // keeps every transmission intra-shard.
        if (grid_.in_gap(e->agent.walker.pos())) {
          ++e->home->gap_silences;
        } else {
          e->radio.transmit(e->agent.probe);
        }
        e->agent.next_scan_us +=
            kScanBaseUs + static_cast<std::int64_t>(e->agent.scan_rng.uniform(
                              0.0, static_cast<double>(kScanJitterUs)));
        schedule_scan(e);
      });
}

void ShardedCity::schedule_walk(Entity* e) {
  e->home->events.post_at(
      SimTime::microseconds(e->agent.next_walk_us), [this, e] {
        if (!e->alive) return;
        const Position pos = e->agent.walker.step(cfg_.walk_tick_s);
        e->radio.set_position(pos);
        if (!e->marked &&
            grid_.owner_shard(pos, cfg_.shards) != e->home->index) {
          e->marked = true;
          e->home->emigrants.push_back(e);
        }
        e->agent.next_walk_us +=
            static_cast<std::int64_t>(cfg_.walk_tick_s * 1e6);
        schedule_walk(e);
      });
}

void ShardedCity::advance_shard(Shard& shard, SimTime until) {
  const auto t0 = Clock::now();
  try {
    shard.events.run_until(until);
  } catch (...) {
    shard.error = std::current_exception();
  }
  shard.epoch_busy = Clock::now() - t0;
}

void ShardedCity::advance_epoch(SimTime until) {
  const auto t0 = Clock::now();
  // Shards share nothing inside an epoch, so which worker advances which
  // shard can never leak into results. advance_shard keeps a shard's error
  // for the barrier below instead of throwing.
  support::parallel_for(workers_, shards_.size(),
                        [this, until](std::size_t, std::size_t s) {
                          advance_shard(*shards_[s], until);
                        });
  // Every shard ran inside [t0, now], so its wait — the epoch's wall less
  // its own run — is never negative: a shard waits on the slowest one, or,
  // on fewer workers than shards, on the shards run before it.
  const auto epoch_wall = Clock::now() - t0;
  for (auto& shard : shards_) {
    shard->busy += shard->epoch_busy;
    shard->wait += epoch_wall - shard->epoch_busy;
  }
  for (auto& shard : shards_) {
    if (shard->error) std::rethrow_exception(shard->error);
  }
}

void ShardedCity::exchange_handoffs() {
  // Single-threaded barrier phase: every shard queue rests exactly at the
  // epoch boundary. Collect emigrants (their per-shard discovery order is
  // deterministic — each shard's event loop is single-threaded), then apply
  // in ascending global-id order so every destination Medium assigns its
  // monotone local ids identically no matter how the epoch was threaded.
  struct Handoff {
    PhoneAgent agent;
    int to = 0;
  };
  std::vector<Handoff> moving;
  for (auto& shard : shards_) {
    for (Entity* e : shard->emigrants) {
      e->marked = false;
      if (!e->alive) continue;
      const int owner =
          grid_.owner_shard(e->agent.walker.pos(), cfg_.shards);
      if (owner == shard->index) continue;  // wandered back before the bar
      e->agent.radio = shard->medium.export_radio(e->radio);
      e->alive = false;  // queued scan/walk events become no-ops
      moving.push_back({std::move(e->agent), owner});
      ++shard->handoffs_out;
    }
    shard->emigrants.clear();
  }
  std::sort(moving.begin(), moving.end(),
            [](const Handoff& a, const Handoff& b) {
              return a.agent.gid < b.agent.gid;
            });
  for (Handoff& h : moving) {
    Shard& dest = *shards_[static_cast<std::size_t>(h.to)];
    Entity& e = make_entity(dest);
    e.agent = std::move(h.agent);
    e.radio = dest.medium.import_radio(e.agent.radio,
                                       make_sink(dest, e.agent.gid));
    // The agent's next event times are strictly past the barrier (anything
    // due earlier already fired in the source shard), so rescheduling here
    // can never violate the queue's no-past-scheduling rule.
    schedule_scan(&e);
    schedule_walk(&e);
    ++dest.handoffs_in;
    ++handoffs_;
  }
}

ShardedCityResult ShardedCity::run() {
  const ConservativeBarrier barrier({epoch_, cfg_.duration});
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < barrier.epochs(); ++i) {
    advance_epoch(barrier.epoch_end(i));
    exchange_handoffs();
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();

  ShardedCityResult r;
  r.shards = cfg_.shards;
  r.workers = workers_;
  r.epochs = barrier.epochs();
  r.handoffs = handoffs_;
  r.wall_s = wall;
  std::vector<const obs::DeliveryLog*> logs;
  logs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats ss;
    ss.transmissions = shard->medium.transmissions();
    ss.deliveries = shard->medium.deliveries();
    ss.handoffs_in = shard->handoffs_in;
    ss.handoffs_out = shard->handoffs_out;
    ss.gap_silences = shard->gap_silences;
    ss.events_processed = shard->events.stats().processed;
    ss.busy_s = std::chrono::duration<double>(shard->busy).count();
    ss.wait_s = std::chrono::duration<double>(shard->wait).count();
    r.transmissions += ss.transmissions;
    r.deliveries += ss.deliveries;
    r.gap_silences += ss.gap_silences;
    r.events_processed += ss.events_processed;
    r.per_shard.push_back(ss);
    logs.push_back(&shard->log);
  }
  r.delivery_digest = obs::combined_digest(logs);
  r.deliveries_per_s =
      wall > 0.0 ? static_cast<double>(r.deliveries) / wall : 0.0;
  if (cfg_.keep_deliveries) {
    r.delivery_records = obs::merge_by_input_order(logs);
  }
  return r;
}

}  // namespace

double sharded_city_max_range_m(const ShardedCityConfig& cfg) {
  const medium::LogDistancePathLoss model(cfg.medium.propagation);
  return model.max_range(std::max(cfg.ap_tx_dbm, cfg.phone_tx_dbm));
}

support::SimTime sharded_city_epoch(const ShardedCityConfig& cfg) {
  if (cfg.epoch.us() > 0) return cfg.epoch;
  return ConservativeBarrier::max_safe_lookahead(
      cfg.grid.gap_m, sharded_city_max_range_m(cfg), cfg.phone_speed_mps,
      cfg.walk_tick_s, kContainmentMarginM);
}

ShardedCityResult run_sharded_city(const ShardedCityConfig& cfg) {
  const auto t_setup = Clock::now();
  ShardedCity city(cfg);
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - t_setup).count();
  ShardedCityResult r = city.run();
  r.phases.setup_s = setup_s;
  r.phases.sim_s = r.wall_s;
  return r;
}

}  // namespace cityhunter::sim
