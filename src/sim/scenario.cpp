#include "sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

namespace cityhunter::sim {

namespace {

/// Venue APs appended to the generated population so the nearest-WiGLE seed
/// can discover them (they are real networks of the city, after all).
struct VenueSite {
  const char* name;
  medium::Position pos;
  std::vector<std::string> ssids;
};

std::vector<VenueSite> venue_sites() {
  return {
      {"subway-passage", {5300, 4600}, {"MTR Free Wi-Fi"}},
      {"canteen", {4100, 6200}, {"Canteen-Free-WiFi", "CampusNet-Open"}},
      {"shopping-center", {6200, 4100}, {"HarbourMall-Guest"}},
      {"railway-station", {3300, 7400}, {"RailwayStation-Free"}},
  };
}

/// §V-B operator hotspots, one list for the cold and warm seeding paths so
/// they cannot diverge.
const std::vector<std::string>& carrier_ssid_list() {
  static const std::vector<std::string> kCarriers = {"PCCW1x", "Y5ZONE",
                                                     "CMCC-AUTO"};
  return kCarriers;
}

/// FNV-1a over exactly the RunConfig fields the setup snapshot depends on
/// (same construction as the checkpoint config hash in sim/checkpoint.cpp).
/// Everything else — run seed, duration, medium overrides, deauth, chaos —
/// affects the simulation, not the seeded database or the venue locale.
std::uint64_t setup_hash(const RunConfig& cfg) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  mix(static_cast<std::uint64_t>(cfg.kind));
  mix(cfg.venue.name.size());
  for (const char c : cfg.venue.name) mix(static_cast<std::uint8_t>(c));
  mix(static_cast<std::uint64_t>(cfg.wigle_seed.nearby_count));
  mix(static_cast<std::uint64_t>(cfg.wigle_seed.popular_count));
  mix(static_cast<std::uint64_t>(cfg.wigle_seed.ranking));
  mix(cfg.seed_carrier_ssids ? 1 : 0);
  return h;
}

/// Chaos hang: a self-rescheduling event that burns ~50 µs of wallclock per
/// firing while advancing sim time 1 µs per event — the run makes no real
/// progress, exactly like a wedged client loop, and only the cooperative
/// watchdog (deadline or event budget) can end it.
void schedule_chaos_hang(medium::EventQueue& events) {
  events.post_in(support::SimTime::microseconds(1), [&events] {
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count() < 50e-6) {
    }
    schedule_chaos_hang(events);
  });
}

}  // namespace

medium::Position venue_city_position(const std::string& venue_name) {
  for (const auto& site : venue_sites()) {
    if (venue_name == site.name) return site.pos;
  }
  return {5000, 5000};  // city centre fallback
}

const char* to_string(AttackerKind k) {
  switch (k) {
    case AttackerKind::kKarma: return "KARMA";
    case AttackerKind::kMana: return "MANA";
    case AttackerKind::kPrelim: return "City-Hunter (prelim)";
    case AttackerKind::kCityHunter: return "City-Hunter";
  }
  return "?";
}

World::World(ScenarioConfig cfg)
    : cfg_(std::move(cfg)),
      root_rng_(cfg_.seed),
      city_(cfg_.city),
      aps_([&] {
        auto rng_aps = root_rng_.fork("aps");
        auto aps = world::generate_aps(city_, rng_aps, cfg_.aps);
        // Venue-local APs: a few open APs per venue SSID around the site.
        auto rng_venues = root_rng_.fork("venue-aps");
        for (const auto& site : venue_sites()) {
          for (const auto& ssid : site.ssids) {
            for (int i = 0; i < 3; ++i) {
              world::AccessPointInfo ap;
              ap.ssid = ssid;
              ap.bssid = dot11::MacAddress::random_local(rng_venues);
              ap.pos = {site.pos.x + rng_venues.uniform(-40, 40),
                        site.pos.y + rng_venues.uniform(-40, 40)};
              ap.open = true;
              ap.channel = 6;
              ap.category = world::ApCategory::kVenueLocal;
              aps.push_back(std::move(ap));
            }
          }
        }
        return aps;
      }()),
      wigle_([&] {
        auto rng_wigle = root_rng_.fork("wigle");
        return world::WigleDb::snapshot(aps_, rng_wigle, cfg_.wigle_coverage);
      }()),
      photos_([&] {
        auto rng_photos = root_rng_.fork("photos");
        return world::PhotoSet::generate(city_, rng_photos, cfg_.photos);
      }()),
      heat_(photos_, city_.width(), city_.height()),
      pnl_(city_, aps_, cfg_.pnl) {}

std::vector<std::string> World::local_public_ssids(medium::Position pos,
                                                   double radius_m) const {
  std::map<std::string, double> propensity;
  for (const auto& ap : aps_) {
    if (!ap.open) continue;
    if (ap.category == world::ApCategory::kResidential ||
        ap.category == world::ApCategory::kCarrier) {
      continue;
    }
    if (medium::distance(ap.pos, pos) > radius_m) continue;
    propensity[ap.ssid] += city_.density(ap.pos);
  }
  std::vector<std::pair<std::string, double>> ranked(propensity.begin(),
                                                     propensity.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<std::string> out;
  out.reserve(ranked.size());
  for (auto& [ssid, w] : ranked) out.push_back(std::move(ssid));
  return out;
}

std::shared_ptr<const SetupCache::Snapshot> SetupCache::lookup_or_build(
    const World& world, const RunConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (world_ == nullptr) {
    world_ = &world;
  } else if (world_ != &world) {
    throw std::logic_error(
        "SetupCache: shared across different Worlds (setup state is "
        "world-derived; use one cache per World)");
  }
  const std::uint64_t h = setup_hash(cfg);
  const auto it = map_.find(h);
  if (it != map_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  Snapshot building{core::SsidDatabase{}, world.pnl_model()};
  const auto attack_city_pos = venue_city_position(cfg.venue.name);
  // Mirror of run_campaign's cold setup, seeding at sim time 0 — exactly
  // when every run's own seeding happens (setup precedes the event loop).
  switch (cfg.kind) {
    case AttackerKind::kKarma:
    case AttackerKind::kMana:
      break;  // no WiGLE seed; the database starts empty
    case AttackerKind::kPrelim: {
      auto seed_cfg = cfg.wigle_seed;
      seed_cfg.ranking = core::PopularRanking::kApCount;  // §III design
      core::seed_from_wigle(building.seeded_db, world.wigle(), nullptr,
                            attack_city_pos, seed_cfg, support::SimTime());
      break;
    }
    case AttackerKind::kCityHunter:
      core::seed_from_wigle(building.seeded_db, world.wigle(), &world.heat(),
                            attack_city_pos, cfg.wigle_seed,
                            support::SimTime());
      break;
  }
  if (cfg.seed_carrier_ssids) {
    core::seed_carrier_ssids(building.seeded_db, carrier_ssid_list(),
                             static_cast<double>(cfg.wigle_seed.popular_count),
                             support::SimTime());
  }
  world::Locale locale;
  locale.ranked_ssids = world.local_public_ssids(attack_city_pos, 500.0);
  locale.bias = 0.45;
  building.pnl.set_locale(std::move(locale));
  auto snap = std::make_shared<const Snapshot>(std::move(building));
  map_.emplace(h, snap);
  return snap;
}

RunOutput run_campaign(const World& world, const RunConfig& cfg) {
  return run_campaign(world, cfg, nullptr);
}

RunOutput run_campaign(const World& world, const RunConfig& cfg,
                       SetupCache* setup_cache) {
  using Clock = std::chrono::steady_clock;
  const auto phase_seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  // Supervisor-field validation, same style as Medium::Config (negated
  // comparison so NaN is rejected too). Inside run_campaign, so a poisoned
  // config fails this one run — isolated and classified by run_campaigns —
  // instead of taking the campaign down.
  if (!(cfg.deadline_s >= 0.0)) {
    throw std::invalid_argument("RunConfig: deadline_s must be non-negative");
  }
  if (cfg.max_retries < 0 || cfg.max_retries > 8) {
    throw std::invalid_argument("RunConfig: max_retries must be in [0, 8]");
  }
  const auto t_setup = Clock::now();

  Rng rng(world.config().seed ^ (cfg.run_seed * 0x9e3779b97f4a7c15ULL));

  obs::Probe probe(cfg.obs);

  medium::EventQueue events;
  medium::Medium::Config medium_cfg =
      cfg.medium ? *cfg.medium : world.config().medium;
  if (medium_cfg.fault.enabled) {
    // Re-key the fault streams per run off the run's labelled RNG root, so
    // repeated slots see different channel noise but every rerun of the
    // same (world seed, run config) is bit-identical at any thread count.
    medium_cfg.fault.seed = rng.fork("fault").engine()();
  }
  medium::Medium medium(events, medium_cfg);
  medium.set_trace(probe.trace());

  // Attacker at the local origin of the venue frame.
  core::Attacker::BaseConfig base;
  base.bssid = *dot11::MacAddress::parse("0a:7e:64:c1:7e:01");
  base.pos = {0, 0};
  base.channel = 6;
  base.tx_power_dbm = 20.0;  // 100 mW

  const auto attack_city_pos = venue_city_position(cfg.venue.name);

  // Warm start: fetch (or build, first run only) the memoized setup
  // snapshot. Everything below applies it copy-on-write — the snapshot is
  // shared and immutable; the run assigns into its own database / PnlModel.
  std::shared_ptr<const SetupCache::Snapshot> snap;
  if (setup_cache != nullptr) {
    snap = setup_cache->lookup_or_build(world, cfg);
  }

  std::unique_ptr<core::Attacker> attacker;
  core::CityHunter* hunter = nullptr;
  switch (cfg.kind) {
    case AttackerKind::kKarma:
      attacker = std::make_unique<core::KarmaAttacker>(medium, base);
      break;
    case AttackerKind::kMana: {
      auto mana_cfg = cfg.mana;
      mana_cfg.base = base;
      attacker = std::make_unique<core::ManaAttacker>(medium, mana_cfg);
      break;
    }
    case AttackerKind::kPrelim: {
      core::CityHunterPrelim::Config pc;
      pc.base = base;
      attacker = std::make_unique<core::CityHunterPrelim>(medium, pc);
      if (snap == nullptr) {
        auto seed_cfg = cfg.wigle_seed;
        seed_cfg.ranking = core::PopularRanking::kApCount;  // §III design
        core::seed_from_wigle(attacker->database(), world.wigle(), nullptr,
                              attack_city_pos, seed_cfg, events.now());
      }
      break;
    }
    case AttackerKind::kCityHunter: {
      auto ch_cfg = cfg.cityhunter;
      ch_cfg.base = base;
      auto ch = std::make_unique<core::CityHunter>(medium, ch_cfg,
                                                   rng.fork("selector"));
      hunter = ch.get();
      attacker = std::move(ch);
      if (snap == nullptr) {
        core::seed_from_wigle(attacker->database(), world.wigle(),
                              &world.heat(), attack_city_pos, cfg.wigle_seed,
                              events.now());
      }
      break;
    }
  }
  // Database layering, preserving the cold path's order exactly: WiGLE seed
  // (from the snapshot or recomputed above) → initial_database overwrite →
  // carrier SSIDs on top. The snapshot already folded the carrier seeds into
  // its database, so the warm path only reseeds them when initial_database
  // replaced it.
  if (snap != nullptr && !cfg.initial_database) {
    attacker->database() = snap->seeded_db;
  }
  if (cfg.initial_database) {
    attacker->database() = *cfg.initial_database;
  }
  if (cfg.seed_carrier_ssids && (snap == nullptr || cfg.initial_database)) {
    core::seed_carrier_ssids(
        attacker->database(), carrier_ssid_list(),
        static_cast<double>(cfg.wigle_seed.popular_count), events.now());
  }
  attacker->set_trace(probe.trace());
  attacker->set_metrics(probe.metrics());
  attacker->start();

  // Optional §V-B deauth setup: a legitimate venue AP holding pre-associated
  // clients, and the attacker forging deauths in its name.
  std::unique_ptr<client::LegitimateAp> legit_ap;
  std::unique_ptr<core::DeauthModule> deauth;
  mobility::SlotParams slot = cfg.slot;
  if (cfg.deauth) {
    client::LegitimateAp::Config ap_cfg;
    ap_cfg.ssid = cfg.venue.venue_ssids.empty() ? "Venue-WiFi"
                                                : cfg.venue.venue_ssids[0];
    ap_cfg.bssid = *dot11::MacAddress::parse("02:13:37:00:00:01");
    ap_cfg.pos = {25, 10};  // across the hall from the attacker
    ap_cfg.open = true;
    ap_cfg.channel = 6;
    legit_ap = std::make_unique<client::LegitimateAp>(medium, ap_cfg);
    legit_ap->start();
    slot.pre_associated_fraction = cfg.deauth->pre_associated_fraction;
    slot.legit_ap = ap_cfg.bssid;
    if (cfg.deauth->enable_deauth) {
      core::DeauthModule::Config dm;
      dm.target_bssids = {ap_cfg.bssid};
      dm.interval = cfg.deauth->interval;
      deauth = std::make_unique<core::DeauthModule>(medium, attacker->radio(),
                                                    dm);
      deauth->start();
    }
  }

  // People found at this venue carry locally flavoured PNLs. The run owns a
  // copy of the PNL model: the venue locale and the person/group/home id
  // counters are per-crowd state, and keeping them out of the shared World
  // is what makes concurrent runs independent (and reruns reproducible).
  // Warm start copies the snapshot's locale-applied model — set_locale only
  // assigns the member, so copy-then-set and copy-of-set are identical —
  // and skips the O(aps) venue SSID ranking.
  world::PnlModel pnl = snap != nullptr ? snap->pnl : world.pnl_model();
  if (snap == nullptr) {
    world::Locale locale;
    locale.ranked_ssids = world.local_public_ssids(attack_city_pos, 500.0);
    locale.bias = 0.45;
    pnl.set_locale(std::move(locale));
  }

  auto phone_cfg = world.config().phone;
  if (cfg.venue.mean_scan_interval_s > 0) {
    phone_cfg.mean_scan_interval =
        support::SimTime::seconds(cfg.venue.mean_scan_interval_s);
  }
  mobility::VenuePopulation population(medium, pnl, cfg.venue, phone_cfg,
                                       rng.fork("population"));
  population.schedule_slot(cfg.duration, slot);

  RunOutput out;
  if (cfg.sample_every) {
    const auto interval = *cfg.sample_every;
    for (SimTime t = interval; t <= cfg.duration; t += interval) {
      events.post_at(t, [&out, &events, a = attacker.get()] {
        std::size_t connected_broadcast = 0;
        for (const auto& [mac, c] : a->clients()) {
          if (!c.direct_prober && c.connected) ++connected_broadcast;
        }
        out.series.push_back(SeriesPoint{events.now(), a->database().size(),
                                         connected_broadcast});
      });
    }
  }

  if (cfg.chaos_hang) schedule_chaos_hang(events);
  if (cfg.chaos_poison_schedule) {
    // The poison fires from inside an event so the failure surfaces out of
    // the run loop, exactly where a real backoff-arithmetic bug would.
    events.post_in(support::SimTime::milliseconds(1), [&events] {
      events.post_at(events.now() - support::SimTime::microseconds(1), [] {});
    });
  }

  // Arm the cooperative watchdog for the event loop only: setup cost is the
  // caller's (already profiled as setup_s), and the loop is where a run can
  // actually wedge. A default guard (no deadline, no budget, no cancel
  // flag) never trips and costs one branch per event.
  medium::RunGuard guard;
  guard.max_events = cfg.max_sim_events;
  guard.deadline_s = cfg.deadline_s;
  guard.cancel = cfg.cancel;
  events.arm_guard(guard);

  const auto t_sim = Clock::now();
  events.run_until(cfg.duration);
  const auto t_analysis = Clock::now();

  out.result = stats::analyze(*attacker, to_string(cfg.kind));
  out.window_rates =
      stats::realtime_hb(*attacker, SimTime::minutes(2), cfg.duration);
  out.db_final_size = attacker->database().size();
  out.db_from_direct =
      attacker->database().count_from(core::SsidSource::kDirectProbe);
  if (hunter != nullptr) {
    out.final_pb_size = hunter->selector().pb_size();
    out.final_fb_size = hunter->selector().fb_size();
  }
  if (deauth) out.deauths_sent = deauth->deauths_sent();
  out.frames_transmitted = medium.transmissions();
  out.frames_delivered = medium.deliveries();
  out.medium_stats = stats::medium_stats(medium);
  out.database = attacker->database();
  out.queue_stats = events.stats();

  if (probe.enabled()) {
    // Compose the deterministic metric series from the counters each layer
    // kept during the run. The attacker's scan-window distribution was
    // observed live; everything else is a single store here, so the
    // snapshot is a pure function of the simulation.
    obs::MetricsRegistry& m = *probe.metrics();
    const auto& qs = events.stats();
    m.add(m.counter("queue.scheduled"), qs.scheduled);
    m.add(m.counter("queue.processed"), qs.processed);
    m.add(m.counter("queue.slab_slots"), qs.slab_slots);
    m.add(m.counter("queue.slab_reuses"), qs.slab_reuses);
    m.set(m.gauge("queue.peak_pending"),
          static_cast<double>(qs.peak_pending));
    m.add(m.counter("medium.transmissions"), medium.transmissions());
    m.add(m.counter("medium.deliveries"), medium.deliveries());
    m.add(m.counter("medium.retries"), medium.retries());
    m.add(m.counter("medium.pathloss_cache_hits"),
          medium.pathloss_cache_hits());
    m.add(m.counter("medium.pathloss_cache_misses"),
          medium.pathloss_cache_misses());
    const auto& fanout = medium.fanout_stats();
    m.add(m.counter("medium.fanout_batched"), fanout.fanouts);
    // Loaded-candidate count under its established name: perfbench's
    // candidates_per_delivery sums this counter.
    m.add(m.counter("medium.fanout_scalar_candidates"),
          fanout.candidates_loaded);
    // End-of-run occupancy histogram of the live spatial index (the
    // histogram is order-insensitive, so the cell-map traversal order
    // doesn't matter).
    const auto occ_id = m.distribution("medium.bucket_occupancy", 4.0);
    medium.for_each_bucket([&m, occ_id](std::uint16_t, std::uint32_t size) {
      m.observe(occ_id, static_cast<double>(size));
    });
    const auto occ = medium.bucket_occupancy();
    m.set(m.gauge("medium.bucket_max_occupancy"),
          static_cast<double>(occ.max_occupancy));
    const auto& drops = medium.drops();
    m.add(m.counter("fault.drop_erasure"), drops.erasure);
    m.add(m.counter("fault.drop_collision"), drops.collision);
    m.add(m.counter("fault.drop_crc_reject"), drops.crc_reject);
    m.add(m.counter("fault.retry_exhausted"), drops.retry_exhausted);
    m.add(m.counter("attacker.scan_windows"), attacker->scan_windows());
    m.add(m.counter("attacker.responses_sent"), attacker->responses_sent());
    m.add(m.counter("attacker.clients_seen"), attacker->clients_seen());
    m.add(m.counter("attacker.clients_connected"),
          attacker->clients_connected());
    if (hunter != nullptr) {
      m.add(m.counter("attacker.pb_grows"), hunter->selector().pb_grows());
      m.add(m.counter("attacker.pb_shrinks"),
            hunter->selector().pb_shrinks());
      m.set(m.gauge("attacker.pb_size"),
            static_cast<double>(hunter->selector().pb_size()));
      m.set(m.gauge("attacker.fb_size"),
            static_cast<double>(hunter->selector().fb_size()));
    }
    m.add(m.counter("trace.dropped"), probe.trace()->dropped());
    // Wallclock phases — kTimer points, stripped by deterministic().
    m.record_seconds(m.timer("phase.setup"), phase_seconds(t_setup, t_sim));
    m.record_seconds(m.timer("phase.sim"), phase_seconds(t_sim, t_analysis));
    m.record_seconds(m.timer("phase.analysis"),
                     phase_seconds(t_analysis, Clock::now()));
    out.metrics = m.snapshot();
    out.trace = probe.trace()->chronological();
    out.trace_dropped = probe.trace()->dropped();
  }

  out.phases.setup_s = phase_seconds(t_setup, t_sim);
  out.phases.sim_s = phase_seconds(t_sim, t_analysis);
  out.phases.analysis_s = phase_seconds(t_analysis, Clock::now());
  return out;
}

}  // namespace cityhunter::sim
