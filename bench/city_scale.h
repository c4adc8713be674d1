// City-scale scenario builder shared by bench/fig_city_scale and
// bench/wallclock: a square urban district with thousands of radios driving
// the Medium's delivery fanout directly.
//
//   - 30% static APs at 20 dBm, beaconing every 102.4 ms (staggered), on
//     channels 1/6/11 — the steady AP↔AP / AP↔phone fanout the pair
//     pathloss cache is built for.
//   - 70% phones at 15 dBm, broadcasting a probe scan every ~2 s (jittered
//     per phone) and walking at ~1.4 m/s toward random waypoints with 1 s
//     position ticks — constant grid churn and pair-cache invalidation.
//
// The builder is deterministic: one seed drives placement, stagger and
// mobility, and the grid pipeline and the legacy-scan oracle must produce
// identical transmission/delivery counts (asserted by fig_city_scale and the
// golden campaign test).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dot11/frame.h"
#include "medium/event_queue.h"
#include "medium/medium.h"
#include "support/rng.h"
#include "support/sim_time.h"

namespace cityhunter::bench {

struct CityScaleParams {
  int radios = 10000;
  double ap_fraction = 0.3;
  /// Side of the square district, metres. 2 km at 10k radios gives ~2.5
  /// radios per 1000 m² — a dense urban block per UJI/Lisbon probe data.
  double area_m = 2000.0;
  support::SimTime duration = support::SimTime::seconds(5.0);
  std::uint64_t seed = 2026;
};

struct CityScaleResult {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Bucket entries the grid probes streamed through the range filter
  /// (Medium::FanoutStats).
  std::uint64_t candidates_loaded = 0;
  /// End-of-run occupancy of the live spatial index.
  double mean_bucket_occupancy = 0.0;
  std::uint32_t max_bucket_occupancy = 0;
  double wall_s = 0.0;
  double deliveries_per_s = 0.0;  // wall-clock deliver throughput
};

namespace detail {

class NullSink final : public medium::FrameSink {
 public:
  void on_frame(const dot11::Frame&, const medium::RxInfo&) override {}
};

/// The whole district. Entities re-post their own events, capturing only
/// {this, index} — inline in the event queue's SmallFn, no heap per event.
class City {
 public:
  City(const CityScaleParams& p, medium::Medium::Config cfg)
      : medium_(events_, cfg), rng_(p.seed), params_(p) {
    const std::uint8_t channels[] = {1, 6, 11};
    const int n_aps = static_cast<int>(p.radios * p.ap_fraction);
    const int n_phones = p.radios - n_aps;
    support::Rng mac_rng(p.seed ^ 0xC17Bu);
    beacon_ = dot11::make_beacon(dot11::MacAddress::random_local(mac_rng),
                                 "city-scale-ap", 6, /*open=*/true,
                                 /*timestamp_us=*/0);
    probe_ = dot11::make_broadcast_probe_request(
        dot11::MacAddress::random_local(mac_rng));

    aps_.reserve(static_cast<std::size_t>(n_aps));
    for (int i = 0; i < n_aps; ++i) {
      const medium::Position pos{rng_.uniform(0.0, p.area_m),
                                 rng_.uniform(0.0, p.area_m)};
      aps_.push_back(
          medium_.attach(pos, channels[rng_.index(3)], 20.0, &sink_));
      // Stagger beacons across the interval so airtime is spread evenly.
      schedule_beacon(static_cast<std::size_t>(i),
                      support::SimTime::microseconds(static_cast<std::int64_t>(
                          rng_.uniform(0.0, 102400.0))));
    }
    phones_.reserve(static_cast<std::size_t>(n_phones));
    phone_pos_.reserve(static_cast<std::size_t>(n_phones));
    phone_waypoint_.reserve(static_cast<std::size_t>(n_phones));
    for (int i = 0; i < n_phones; ++i) {
      const medium::Position pos{rng_.uniform(0.0, p.area_m),
                                 rng_.uniform(0.0, p.area_m)};
      phones_.push_back(
          medium_.attach(pos, channels[rng_.index(3)], 15.0, &sink_));
      phone_pos_.push_back(pos);
      phone_waypoint_.push_back({rng_.uniform(0.0, p.area_m),
                                 rng_.uniform(0.0, p.area_m)});
      const auto idx = static_cast<std::size_t>(i);
      schedule_scan(idx, support::SimTime::microseconds(static_cast<
                             std::int64_t>(rng_.uniform(0.0, 2e6))));
      schedule_walk(idx, support::SimTime::microseconds(static_cast<
                             std::int64_t>(rng_.uniform(0.0, 1e6))));
    }
  }

  void run() { events_.run_until(params_.duration); }

  const medium::Medium& medium() const { return medium_; }

 private:
  void schedule_beacon(std::size_t i, support::SimTime at) {
    events_.post_at(at, [this, i] {
      aps_[i].transmit(beacon_);
      schedule_beacon(i, events_.now() +
                             support::SimTime::microseconds(102400));
    });
  }

  void schedule_scan(std::size_t i, support::SimTime at) {
    events_.post_at(at, [this, i] {
      phones_[i].transmit(probe_);
      // Per-phone jitter, drawn from the shared deterministic stream in
      // event order (the queue is FIFO at equal times, so the order is
      // reproducible).
      schedule_scan(i, events_.now() +
                           support::SimTime::microseconds(
                               1500000 + static_cast<std::int64_t>(
                                             rng_.uniform(0.0, 1e6))));
    });
  }

  void schedule_walk(std::size_t i, support::SimTime at) {
    events_.post_at(at, [this, i] {
      constexpr double kStepM = 1.4;  // walking speed × 1 s tick
      medium::Position& pos = phone_pos_[i];
      const medium::Position& wp = phone_waypoint_[i];
      const double dx = wp.x - pos.x;
      const double dy = wp.y - pos.y;
      const double d = std::hypot(dx, dy);
      if (d <= kStepM) {
        pos = wp;
        phone_waypoint_[i] = {rng_.uniform(0.0, params_.area_m),
                              rng_.uniform(0.0, params_.area_m)};
      } else {
        pos.x += dx / d * kStepM;
        pos.y += dy / d * kStepM;
      }
      phones_[i].set_position(pos);
      schedule_walk(i, events_.now() + support::SimTime::seconds(1.0));
    });
  }

  medium::EventQueue events_;
  medium::Medium medium_;
  NullSink sink_;
  support::Rng rng_;
  CityScaleParams params_;
  dot11::Frame beacon_;
  dot11::Frame probe_;
  std::vector<medium::Radio> aps_;
  std::vector<medium::Radio> phones_;
  std::vector<medium::Position> phone_pos_;
  std::vector<medium::Position> phone_waypoint_;
};

}  // namespace detail

/// Build and run the district under `cfg`, timing the event loop only
/// (setup excluded).
inline CityScaleResult run_city_scale(const CityScaleParams& params,
                                      medium::Medium::Config cfg) {
  detail::City city(params, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  city.run();
  const auto t1 = std::chrono::steady_clock::now();
  CityScaleResult r;
  r.transmissions = city.medium().transmissions();
  r.deliveries = city.medium().deliveries();
  r.cache_hits = city.medium().pathloss_cache_hits();
  r.cache_misses = city.medium().pathloss_cache_misses();
  r.candidates_loaded = city.medium().fanout_stats().candidates_loaded;
  const medium::Medium::BucketOccupancy occ = city.medium().bucket_occupancy();
  r.mean_bucket_occupancy = occ.mean();
  r.max_bucket_occupancy = occ.max_occupancy;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.deliveries_per_s =
      r.wall_s > 0.0 ? static_cast<double>(r.deliveries) / r.wall_s : 0.0;
  return r;
}

}  // namespace cityhunter::bench
