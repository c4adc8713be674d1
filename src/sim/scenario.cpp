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

const std::vector<VenueSite>& venue_sites() {
  static const std::vector<VenueSite> kSites = {
      {"subway-passage", {5300, 4600}, {"MTR Free Wi-Fi"}},
      {"canteen", {4100, 6200}, {"Canteen-Free-WiFi", "CampusNet-Open"}},
      {"shopping-center", {6200, 4100}, {"HarbourMall-Guest"}},
      {"railway-station", {3300, 7400}, {"RailwayStation-Free"}},
  };
  return kSites;
}

constexpr medium::Position kCityCentre{5000, 5000};

/// Index of `venue_name` in venue_sites(); venue_sites().size() for the
/// city-centre fallback.
std::size_t site_index(const std::string& venue_name) {
  const auto& sites = venue_sites();
  std::size_t i = 0;
  while (i < sites.size() && venue_name != sites[i].name) ++i;
  return i;
}

/// A venue crowd's locale: the open public SSIDs within this radius of the
/// venue, drawn from with this bias.
constexpr double kLocaleRadiusM = 500.0;
constexpr double kLocaleBias = 0.45;

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

/// The attacker's database at sim time 0, when every run's setup happens
/// (setup precedes the event loop): a warm start's carried-over database,
/// else the WiGLE seed from prefixes of the World's offline lists, then
/// the §V-B operator hotspots on top, at the top popular rank's weight.
core::SsidDatabase starting_database(const World& world,
                                     const RunConfig& cfg) {
  core::SsidDatabase db;
  if (cfg.initial_database) {
    db = *cfg.initial_database;
  } else {
    const auto& nearby = world.site_lists(cfg.venue.name).nearest_free;
    switch (cfg.kind) {
      case AttackerKind::kKarma:
      case AttackerKind::kMana:
        break;  // no WiGLE seed; the database starts empty
      case AttackerKind::kPrelim: {
        auto seed_cfg = cfg.wigle_seed;
        seed_cfg.ranking = core::PopularRanking::kApCount;  // §III design
        core::seed_ranked(db, world.ranked_free_ssids(seed_cfg.ranking),
                          nearby, seed_cfg, support::SimTime());
        break;
      }
      case AttackerKind::kCityHunter:
        core::seed_ranked(db, world.ranked_free_ssids(cfg.wigle_seed.ranking),
                          nearby, cfg.wigle_seed, support::SimTime());
        break;
    }
  }
  if (cfg.seed_carrier_ssids) {
    static const std::vector<std::string> kCarriers = {"PCCW1x", "Y5ZONE",
                                                       "CMCC-AUTO"};
    core::seed_carrier_ssids(db, kCarriers,
                             static_cast<double>(cfg.wigle_seed.popular_count),
                             support::SimTime());
  }
  return db;
}

/// Supervisor-field and duration validation, same style as Medium::Config
/// (negated comparison so NaN is rejected too). Inside the run, so a
/// poisoned config fails this one run — isolated and classified by
/// run_campaigns — instead of taking the campaign down.
const RunConfig& validated(const RunConfig& cfg) {
  if (!(cfg.deadline_s >= 0.0)) {
    throw std::invalid_argument("RunConfig: deadline_s must be non-negative");
  }
  if (cfg.max_retries < 0 || cfg.max_retries > 8) {
    throw std::invalid_argument("RunConfig: max_retries must be in [0, 8]");
  }
  if (cfg.duration < support::SimTime::zero()) {
    throw std::invalid_argument("RunConfig: duration must be non-negative");
  }
  // A zero interval would post series points forever; a negative one
  // schedules into the past.
  if (cfg.sample_every && *cfg.sample_every <= support::SimTime::zero()) {
    throw std::invalid_argument("RunConfig: sample_every must be positive");
  }
  // The counts size the seed lists, and popular_count is the carrier
  // seed's weight.
  core::check_seed_counts(cfg.wigle_seed);
  return cfg;
}

/// The run's medium config. The fault draws are re-keyed per run off the
/// run's labelled RNG root, so repeated slots see different channel noise
/// but every rerun of the same (world seed, run config) is bit-identical at
/// any thread count.
medium::Medium::Config run_medium_config(const World& world,
                                         const RunConfig& cfg,
                                         const Rng& rng) {
  medium::Medium::Config medium_cfg =
      cfg.medium ? *cfg.medium : world.config().medium;
  if (medium_cfg.fault.enabled) {
    medium_cfg.fault.seed = rng.fork("fault").engine()();
  }
  return medium_cfg;
}

client::SmartphoneConfig venue_phone_config(const World& world,
                                            const RunConfig& cfg) {
  auto phone_cfg = world.config().phone;
  if (cfg.venue.mean_scan_interval_s > 0) {
    phone_cfg.mean_scan_interval =
        support::SimTime::seconds(cfg.venue.mean_scan_interval_s);
  }
  return phone_cfg;
}

}  // namespace

medium::Position venue_city_position(const std::string& venue_name) {
  const std::size_t i = site_index(venue_name);
  return i < venue_sites().size() ? venue_sites()[i].pos : kCityCentre;
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
      pnl_(city_, aps_, cfg_.pnl),
      by_heat_(heatmap::top_by_heat(wigle_, heat_, wigle_.size())),
      by_count_(heatmap::top_by_ap_count(wigle_, wigle_.size())) {
  const auto add_site = [this](medium::Position pos) {
    sites_.push_back({wigle_.nearest_free_ssids(pos, wigle_.size()),
                      local_public_ssids(pos, kLocaleRadiusM)});
  };
  for (const auto& site : venue_sites()) add_site(site.pos);
  add_site(kCityCentre);
}

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

const std::vector<heatmap::ScoredSsid>& World::ranked_free_ssids(
    core::PopularRanking ranking) const {
  return ranking == core::PopularRanking::kHeat ? by_heat_ : by_count_;
}

const SiteLists& World::site_lists(const std::string& venue_name) const {
  return sites_[site_index(venue_name)];
}

world::PnlModel venue_pnl_model(const World& world,
                                const std::string& venue_name) {
  world::PnlModel pnl = world.pnl_model();
  world::Locale locale;
  locale.ranked_ssids = world.site_lists(venue_name).locale;
  locale.bias = kLocaleBias;
  pnl.set_locale(std::move(locale));
  return pnl;
}

VenueRun::VenueRun(const World& world, const RunConfig& cfg)
    : cfg_(validated(cfg)),
      t_setup_(Clock::now()),
      rng_(world.config().seed ^ (cfg.run_seed * 0x9e3779b97f4a7c15ULL)),
      probe_(cfg.obs),
      medium_(events_, run_medium_config(world, cfg, rng_)),
      pnl_(venue_pnl_model(world, cfg.venue.name)),
      population_(medium_, pnl_, cfg.venue,
                  venue_phone_config(world, cfg), rng_.fork("population")) {
  medium_.set_trace(probe_.trace());

  // Attacker at the local origin of the venue frame.
  core::Attacker::BaseConfig base;
  base.bssid = *dot11::MacAddress::parse("0a:7e:64:c1:7e:01");
  base.pos = {0, 0};
  base.channel = 6;
  base.tx_power_dbm = 20.0;  // 100 mW
  switch (cfg.kind) {
    case AttackerKind::kKarma:
      attacker_ = std::make_unique<core::KarmaAttacker>(medium_, base);
      break;
    case AttackerKind::kMana: {
      auto mana_cfg = cfg.mana;
      mana_cfg.base = base;
      attacker_ = std::make_unique<core::ManaAttacker>(medium_, mana_cfg);
      break;
    }
    case AttackerKind::kPrelim: {
      core::CityHunterPrelim::Config pc;
      pc.base = base;
      attacker_ = std::make_unique<core::CityHunterPrelim>(medium_, pc);
      break;
    }
    case AttackerKind::kCityHunter: {
      auto ch_cfg = cfg.cityhunter;
      ch_cfg.base = base;
      auto ch = std::make_unique<core::CityHunter>(medium_, ch_cfg,
                                                   rng_.fork("selector"));
      hunter_ = ch.get();
      attacker_ = std::move(ch);
      break;
    }
  }
  attacker_->database() = starting_database(world, cfg);
  attacker_->set_trace(probe_.trace());
  attacker_->set_metrics(probe_.metrics());
  attacker_->start();

  // Optional §V-B deauth setup: a legitimate venue AP holding pre-associated
  // clients, and the attacker forging deauths in its name.
  mobility::SlotParams slot = cfg.slot;
  if (cfg.deauth) {
    client::LegitimateAp::Config ap_cfg;
    ap_cfg.ssid = cfg.venue.venue_ssids.empty() ? "Venue-WiFi"
                                                : cfg.venue.venue_ssids[0];
    ap_cfg.bssid = *dot11::MacAddress::parse("02:13:37:00:00:01");
    ap_cfg.pos = {25, 10};  // across the hall from the attacker
    ap_cfg.open = true;
    ap_cfg.channel = 6;
    legit_ap_ = std::make_unique<client::LegitimateAp>(medium_, ap_cfg);
    legit_ap_->start();
    slot.pre_associated_fraction = cfg.deauth->pre_associated_fraction;
    slot.legit_ap = ap_cfg.bssid;
    if (cfg.deauth->enable_deauth) {
      core::DeauthModule::Config dm;
      dm.target_bssids = {ap_cfg.bssid};
      dm.interval = cfg.deauth->interval;
      deauth_ = std::make_unique<core::DeauthModule>(
          medium_, attacker_->radio(), dm);
      deauth_->start();
    }
  }

  population_.schedule_slot(cfg.duration, slot);

  if (cfg.sample_every) {
    const auto interval = *cfg.sample_every;
    for (SimTime t = interval; t <= cfg.duration; t += interval) {
      events_.post_at(t, [this] {
        std::size_t connected_broadcast = 0;
        for (const auto& [mac, c] : attacker_->clients()) {
          if (!c.direct_prober && c.connected) ++connected_broadcast;
        }
        series_.push_back(SeriesPoint{
            events_.now(), attacker_->database().size(), connected_broadcast});
      });
    }
  }

  if (cfg.chaos_hang) schedule_chaos_hang(events_);
  if (cfg.chaos_poison_schedule) {
    // The poison fires from inside an event so the failure surfaces out of
    // the run loop, exactly where a real backoff-arithmetic bug would.
    events_.post_in(support::SimTime::milliseconds(1), [this] {
      events_.post_at(events_.now() - support::SimTime::microseconds(1),
                      [] {});
    });
  }
}

RunOutput VenueRun::run() {
  const auto phase_seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  // Arm the cooperative watchdog for the event loop only: setup cost is the
  // caller's (already profiled as setup_s), and the loop is where a run can
  // actually wedge. A default guard (no deadline, no budget, no cancel
  // flag) never trips and costs one branch per event.
  medium::RunGuard guard;
  guard.max_events = cfg_.max_sim_events;
  guard.deadline_s = cfg_.deadline_s;
  guard.cancel = cfg_.cancel;
  events_.arm_guard(guard);

  const auto t_sim = Clock::now();
  events_.run_until(cfg_.duration);
  const auto t_analysis = Clock::now();

  RunOutput out;
  out.series = std::move(series_);
  out.result = stats::analyze(*attacker_, to_string(cfg_.kind));
  out.window_rates =
      stats::realtime_hb(*attacker_, SimTime::minutes(2), cfg_.duration);
  out.db_final_size = attacker_->database().size();
  out.db_from_direct =
      attacker_->database().count_from(core::SsidSource::kDirectProbe);
  if (hunter_ != nullptr) {
    out.final_pb_size = hunter_->selector().pb_size();
    out.final_fb_size = hunter_->selector().fb_size();
  }
  if (deauth_) out.deauths_sent = deauth_->deauths_sent();
  out.frames_transmitted = medium_.transmissions();
  out.frames_delivered = medium_.deliveries();
  out.medium_stats = stats::medium_stats(medium_);
  out.database = attacker_->database();
  out.queue_stats = events_.stats();

  if (probe_.enabled()) {
    // Compose the deterministic metric series from the counters each layer
    // kept during the run. The attacker's scan-window distribution was
    // observed live; everything else is a single store here, so the
    // snapshot is a pure function of the simulation.
    obs::MetricsRegistry& m = *probe_.metrics();
    const auto& qs = events_.stats();
    m.add(m.counter("queue.scheduled"), qs.scheduled);
    m.add(m.counter("queue.processed"), qs.processed);
    m.add(m.counter("queue.slab_slots"), qs.slab_slots);
    m.add(m.counter("queue.slab_reuses"), qs.slab_reuses);
    m.set(m.gauge("queue.peak_pending"),
          static_cast<double>(qs.peak_pending));
    m.add(m.counter("medium.transmissions"), medium_.transmissions());
    m.add(m.counter("medium.deliveries"), medium_.deliveries());
    m.add(m.counter("medium.retries"), medium_.retries());
    const auto& fanout = medium_.fanout_stats();
    m.add(m.counter("medium.fanout_batched"), fanout.fanouts);
    // Loaded-candidate count under its established name: perfbench's
    // candidates_per_delivery sums this counter.
    m.add(m.counter("medium.fanout_scalar_candidates"),
          fanout.candidates_loaded);
    m.add(m.counter("medium.unicast_fanouts"), fanout.unicast);
    m.add(m.counter("medium.unicast_unheard"), fanout.unicast_unheard);
    // End-of-run occupancy histogram of the live spatial index (the
    // histogram is order-insensitive, so the cell-map traversal order
    // doesn't matter).
    const auto occ_id = m.distribution("medium.bucket_occupancy", 4.0);
    medium_.for_each_bucket([&m, occ_id](std::uint16_t, std::uint32_t size) {
      m.observe(occ_id, static_cast<double>(size));
    });
    const auto occ = medium_.bucket_occupancy();
    m.set(m.gauge("medium.bucket_max_occupancy"),
          static_cast<double>(occ.max_occupancy));
    const auto& drops = medium_.drops();
    m.add(m.counter("fault.drop_erasure"), drops.erasure);
    m.add(m.counter("fault.drop_collision"), drops.collision);
    m.add(m.counter("fault.drop_crc_reject"), drops.crc_reject);
    m.add(m.counter("fault.retry_exhausted"), drops.retry_exhausted);
    m.add(m.counter("attacker.scan_windows"), attacker_->scan_windows());
    m.add(m.counter("attacker.responses_sent"), attacker_->responses_sent());
    m.add(m.counter("attacker.clients_seen"), attacker_->clients_seen());
    m.add(m.counter("attacker.clients_connected"),
          attacker_->clients_connected());
    if (hunter_ != nullptr) {
      m.add(m.counter("attacker.pb_grows"), hunter_->selector().pb_grows());
      m.add(m.counter("attacker.pb_shrinks"),
            hunter_->selector().pb_shrinks());
      m.set(m.gauge("attacker.pb_size"),
            static_cast<double>(hunter_->selector().pb_size()));
      m.set(m.gauge("attacker.fb_size"),
            static_cast<double>(hunter_->selector().fb_size()));
    }
    m.add(m.counter("trace.dropped"), probe_.trace()->dropped());
    out.metrics = m.snapshot();
    out.trace = probe_.trace()->chronological();
    out.trace_dropped = probe_.trace()->dropped();
  }

  out.phases.setup_s = phase_seconds(t_setup_, t_sim);
  out.phases.sim_s = phase_seconds(t_sim, t_analysis);
  out.phases.analysis_s = phase_seconds(t_analysis, Clock::now());
  return out;
}

RunOutput run_campaign(const World& world, const RunConfig& cfg) {
  return VenueRun(world, cfg).run();
}

RunOutput run_campaign(const World& world, const RunConfig& cfg,
                       SetupCache*) {
  return run_campaign(world, cfg);
}

}  // namespace cityhunter::sim
