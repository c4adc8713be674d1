// Scenario wiring: one World (city + APs + WiGLE + photos + heat map + PNL
// model) shared by many campaign runs, and a VenueRun that deploys an
// attacker in a venue for one test slot, exactly as the paper deployed its
// Raspberry Pi. run_campaign() is a VenueRun with nothing attached.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/legit_ap.h"
#include "client/smartphone.h"
#include "core/cityhunter.h"
#include "core/cityhunter_prelim.h"
#include "core/deauth.h"
#include "core/karma.h"
#include "core/mana.h"
#include "core/wigle_seed.h"
#include "heatmap/heatmap.h"
#include "medium/medium.h"
#include "mobility/population.h"
#include "obs/probe.h"
#include "mobility/venue.h"
#include "sim/run_error.h"
#include "stats/campaign.h"
#include "world/ap_generator.h"
#include "world/city.h"
#include "world/photos.h"
#include "world/pnl.h"
#include "world/wigle.h"

namespace cityhunter::sim {

using support::Rng;
using support::SimTime;

struct ScenarioConfig {
  std::uint64_t seed = 42;
  world::CityModel::Config city{};
  world::ApPopulationConfig aps = world::default_ap_population();
  world::PnlModelConfig pnl{};
  world::PhotoSetConfig photos{};
  world::WigleCoverage wigle_coverage{};
  medium::Medium::Config medium{};
  client::SmartphoneConfig phone{};
};

/// City coordinates where each of the paper's four venues sits (used for
/// the nearest-SSID WiGLE query and for placing the venues' own APs). An
/// unknown name gets the city centre.
medium::Position venue_city_position(const std::string& venue_name);

/// The offline lists of one attack position (see World::site_lists).
struct SiteLists {
  /// Every distinct free WiGLE SSID, nearest first: its first n entries are
  /// WigleDb::nearest_free_ssids(pos, n).
  std::vector<std::string> nearest_free;
  /// local_public_ssids(pos, 500 m): the venue crowd's locale.
  std::vector<std::string> locale;
};

/// The static world: built once per scenario seed, shared across runs. All
/// accessors are const — campaigns never mutate the world, which is what
/// lets run_campaigns() fan them across threads (see sim/parallel.h).
///
/// The world also does the paper's offline phase (§III-B, §IV-B) once, at
/// construction: the city-wide free-SSID rankings and, for every venue
/// position and the city-centre fallback, the nearest-SSID order and the
/// locale. A run seeds its attacker from prefixes of these lists.
class World {
 public:
  explicit World(ScenarioConfig cfg);

  const world::CityModel& city() const { return city_; }
  const std::vector<world::AccessPointInfo>& aps() const { return aps_; }
  const world::WigleDb& wigle() const { return wigle_; }
  const heatmap::HeatMap& heat() const { return heat_; }
  /// Shared, immutable PNL model. Anything that needs per-crowd state (the
  /// venue Locale, person-id counters) copies it first — see
  /// venue_pnl_model.
  const world::PnlModel& pnl_model() const { return pnl_; }
  const ScenarioConfig& config() const { return cfg_; }

  /// Open public SSIDs with ground-truth APs within `radius_m` of `pos`,
  /// ranked by local visit propensity (for world::Locale).
  std::vector<std::string> local_public_ssids(medium::Position pos,
                                              double radius_m = 800.0) const;

  /// Every free WiGLE SSID ranked city-wide: its first k entries are
  /// heatmap::top_by_heat(wigle(), heat(), k) or top_by_ap_count(wigle(), k).
  const std::vector<heatmap::ScoredSsid>& ranked_free_ssids(
      core::PopularRanking ranking) const;

  /// The offline lists at venue_city_position(venue_name); an unknown name
  /// gets the city centre's.
  const SiteLists& site_lists(const std::string& venue_name) const;

 private:
  ScenarioConfig cfg_;
  /// Root of all world-construction randomness. Each subsystem forks its
  /// own stream off this root with a stable label ("aps", "venue-aps",
  /// "wigle", "photos"); fork() never advances the parent, so adding a new
  /// labelled fork cannot perturb the existing streams. Pick a fresh label
  /// for any new world-level randomness instead of reseeding from cfg_.
  Rng root_rng_;
  world::CityModel city_;
  std::vector<world::AccessPointInfo> aps_;
  world::WigleDb wigle_;
  world::PhotoSet photos_;
  heatmap::HeatMap heat_;
  world::PnlModel pnl_;
  std::vector<heatmap::ScoredSsid> by_heat_;
  std::vector<heatmap::ScoredSsid> by_count_;
  /// One entry per venue site, in venue-site order, then the city centre.
  std::vector<SiteLists> sites_;
};

/// A copy of the world's PNL model for one crowd at `venue_name`: people
/// found at a venue carry locally flavoured PNLs, drawn from the open public
/// SSIDs within 500 m of the venue. The copy is per-crowd state (the locale
/// and the person/group/home id counters), which is what keeps concurrent
/// runs independent and reruns reproducible.
world::PnlModel venue_pnl_model(const World& world,
                                const std::string& venue_name);

enum class AttackerKind { kKarma, kMana, kPrelim, kCityHunter };

const char* to_string(AttackerKind k);

struct DeauthScenario {
  double pre_associated_fraction = 0.5;
  SimTime interval = SimTime::seconds(20);
  bool enable_deauth = true;  // false: victims stay associated (baseline)
};

struct RunConfig {
  AttackerKind kind = AttackerKind::kCityHunter;
  mobility::VenueConfig venue = mobility::canteen_venue();
  mobility::SlotParams slot{};
  SimTime duration = SimTime::hours(1);
  std::uint64_t run_seed = 1;  // varies per slot / repetition

  /// WiGLE seeding (prelim uses AP-count ranking, advanced uses heat).
  core::WigleSeedConfig wigle_seed{};
  /// Advanced attacker knobs (buffers, weights, ablation switches).
  core::CityHunter::Config cityhunter{};
  core::ManaAttacker::Config mana{};

  /// §V-B extensions.
  bool seed_carrier_ssids = false;
  std::optional<DeauthScenario> deauth;

  /// Sample the database size at this interval (Fig 1a). Unset = no series;
  /// a non-positive interval is rejected.
  std::optional<SimTime> sample_every;

  /// Override the world's medium config for this run. Fault-injection
  /// sweeps (bench/ablation_loss) vary loss settings per run against one
  /// shared — expensive to build — World.
  std::optional<medium::Medium::Config> medium;

  /// Warm start: carry over a database from a previous slot instead of
  /// re-initialising (the paper re-initialised before every test; this knob
  /// quantifies what that choice cost). Applied after WiGLE seeding, so
  /// learned SSIDs and hit records survive.
  std::optional<core::SsidDatabase> initial_database;

  /// Observability. Off by default — a disabled probe costs one null test
  /// per hook and the run's outputs stay byte-identical.
  obs::Config obs{};

  /// --- Supervisor limits (enforced cooperatively at event-queue
  /// granularity; see sim/parallel and DESIGN.md §5f). VenueRun validates
  /// these, and duration >= 0, in the same style as Medium::Config:
  /// deadline_s >= 0 (NaN rejected), max_sim_events any, max_retries in
  /// [0, 8]. ---

  /// Per-run wallclock deadline in seconds covering the event loop; 0 = no
  /// deadline. A tripped deadline aborts the run with
  /// RunErrorKind::kDeadlineExceeded.
  double deadline_s = 0.0;
  /// Sim-event budget for the run; 0 = unlimited. Exceeding it aborts with
  /// RunErrorKind::kEventBudgetExceeded.
  std::uint64_t max_sim_events = 0;
  /// Additional attempts the campaign supervisor may spend when this run
  /// fails with a retryable error, in [0, 8]. Retry schedules are
  /// deterministic — see sim::retry_backoff().
  int max_retries = 1;
  /// External cancellation flag polled by the event loop (relaxed loads);
  /// nullptr = not cancellable. A cancelled run is classified
  /// RunErrorKind::kCancelled and never retried.
  const std::atomic<bool>* cancel = nullptr;

  /// --- Chaos injection (set by the supervisor's ChaosConfig on the first
  /// attempt only; both default false and change nothing when unset). ---

  /// Schedule a self-rescheduling busy-wait event so the run burns wallclock
  /// without advancing sim time — a reproducible "hang" for the watchdog to
  /// catch. Requires deadline_s or max_sim_events to terminate.
  bool chaos_hang = false;
  /// Post an event that then schedules into the past, poisoning the queue:
  /// the run dies with medium::PastScheduleError, which the supervisor must
  /// classify (regression net for the structured error taxonomy).
  bool chaos_poison_schedule = false;
};

struct SeriesPoint {
  SimTime time;
  std::size_t db_size = 0;
  std::size_t broadcast_connected = 0;

  bool operator==(const SeriesPoint&) const = default;
};

/// Wallclock split of one run, and the only wallclock a RunOutput carries.
/// Always measured (three steady_clock reads); never part of any result
/// comparison — wallclock is not deterministic.
struct PhaseProfile {
  double setup_s = 0.0;     // world wiring: attacker, venue, population
  double sim_s = 0.0;       // the event-queue loop
  double analysis_s = 0.0;  // end-of-run stats extraction
};

struct RunOutput {
  stats::CampaignResult result;
  std::vector<SeriesPoint> series;
  std::vector<stats::WindowRate> window_rates;  // 2-minute h_b^r windows
  int final_pb_size = 0;
  int final_fb_size = 0;
  std::size_t db_final_size = 0;
  std::size_t db_from_direct = 0;
  std::uint64_t deauths_sent = 0;
  /// Medium traffic totals for the run (throughput bookkeeping in
  /// bench/wallclock). frames_delivered counts frames handed to a sink:
  /// group-addressed frames to every listener in range, unicast frames to
  /// their addressee and to monitors only.
  std::uint64_t frames_transmitted = 0;
  std::uint64_t frames_delivered = 0;
  /// Channel-side counters incl. fault-injection losses/retries (zeros on a
  /// perfect channel).
  stats::MediumStats medium_stats;
  /// Snapshot of the attacker's database at the end of the run (for warm
  /// starting the next slot).
  core::SsidDatabase database;
  /// Event-queue lifetime counters — deterministic, always filled.
  medium::EventQueue::Stats queue_stats;
  /// Wallclock phase split — always filled, never compared.
  PhaseProfile phases;
  /// Observability harvest, empty unless cfg.obs.enabled: the metrics
  /// snapshot (a pure function of the simulation, equal at any thread
  /// count) and the trace ring's retained records, oldest first.
  obs::MetricsSnapshot metrics;
  std::vector<obs::TraceRecord> trace;
  /// Records the ring had to overwrite (0 when the capacity sufficed).
  std::uint64_t trace_dropped = 0;
  /// Set by run_campaigns() when this run failed instead of completing:
  /// structured kind (exception / deadline / event budget / retry-exhausted
  /// / cancelled) plus the tagged "run_seed=<seed> venue=<name>
  /// attacker=<kind>: <what>" message and the attempts consumed. kNone on
  /// success; a failed run's other fields are default-initialised.
  RunError error;
};

/// Empty, and inert wherever it is passed: every run builds its own setup
/// from the World's offline lists. It stays only while perfbench names it;
/// ROADMAP item 9 removes those uses, and a later change deletes it and the
/// run_campaign overload that takes it.
struct SetupCache {};

/// One deployment: `cfg.kind` in `cfg.venue` for `cfg.duration`. The
/// constructor validates `cfg` and wires the run without advancing time:
/// the per-run RNG (seeded world.seed ^ run_seed*φ, with "fault",
/// "selector" and "population" forks), the medium, the attacker and its
/// seeded database, the §V-B legitimate AP and deauth, the venue crowd, and
/// the series and chaos events. events(), medium(), attacker() and
/// population() let a caller attach an observer (a detector, a pcap
/// monitor) before run() and read ground truth after it.
///
/// Lifetime: the medium and everything on it (the attacker, the legitimate
/// AP, the deauth module, the crowd) post events that capture them, with no
/// way to cancel. The queue is declared before every one of them, so it is
/// destroyed last and nothing runs it after they are gone. An observer the
/// caller attaches to medium() must stay alive until run() returns.
///
/// Pure in the world: the output depends only on (world seed, cfg), never
/// on other runs, so repeated or concurrent runs are bit-identical.
class VenueRun {
 public:
  /// `cfg` must outlive the VenueRun. Throws std::invalid_argument on an
  /// invalid supervisor field, a negative duration or a negative WiGLE seed
  /// count.
  VenueRun(const World& world, const RunConfig& cfg);

  VenueRun(const VenueRun&) = delete;
  VenueRun& operator=(const VenueRun&) = delete;

  medium::EventQueue& events() { return events_; }
  medium::Medium& medium() { return medium_; }
  core::Attacker& attacker() { return *attacker_; }
  const mobility::VenuePopulation& population() const { return population_; }

  /// Arm the watchdog, run the queue to cfg.duration and analyse. Call
  /// once. PhaseProfile::setup_s spans construction to the loop's start.
  RunOutput run();

 private:
  using Clock = std::chrono::steady_clock;

  const RunConfig& cfg_;
  Clock::time_point t_setup_;
  Rng rng_;
  obs::Probe probe_;
  medium::EventQueue events_;  // before every owner that posts into it
  medium::Medium medium_;
  /// venue_pnl_model(world, cfg.venue.name), for the crowd to draw from.
  world::PnlModel pnl_;
  std::unique_ptr<core::Attacker> attacker_;
  core::CityHunter* hunter_ = nullptr;  // attacker_ when it is City-Hunter
  std::unique_ptr<client::LegitimateAp> legit_ap_;
  std::unique_ptr<core::DeauthModule> deauth_;
  mobility::VenuePopulation population_;
  std::vector<SeriesPoint> series_;
};

/// VenueRun(world, cfg).run(): deploy `cfg.kind` in `cfg.venue` for
/// `cfg.duration` and analyse, with nothing attached.
RunOutput run_campaign(const World& world, const RunConfig& cfg);

/// run_campaign(world, cfg); the SetupCache is ignored (see SetupCache).
RunOutput run_campaign(const World& world, const RunConfig& cfg, SetupCache*);

}  // namespace cityhunter::sim
