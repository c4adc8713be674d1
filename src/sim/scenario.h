// Scenario wiring: one World (city + APs + WiGLE + photos + heat map + PNL
// model) shared by many campaign runs, and a run_campaign() driver that
// deploys an attacker in a venue for one test slot, exactly as the paper
// deployed its Raspberry Pi.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
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
/// the nearest-SSID WiGLE query and for placing the venues' own APs).
medium::Position venue_city_position(const std::string& venue_name);

/// The static world: built once per scenario seed, shared across runs. All
/// accessors are const — campaigns never mutate the world, which is what
/// lets run_campaigns() fan them across threads (see sim/parallel.h).
class World {
 public:
  explicit World(ScenarioConfig cfg);

  const world::CityModel& city() const { return city_; }
  const std::vector<world::AccessPointInfo>& aps() const { return aps_; }
  const world::WigleDb& wigle() const { return wigle_; }
  const heatmap::HeatMap& heat() const { return heat_; }
  /// Shared, immutable PNL model. Anything that needs per-crowd state (the
  /// venue Locale, person-id counters) copies it first — see run_campaign.
  const world::PnlModel& pnl_model() const { return pnl_; }
  const ScenarioConfig& config() const { return cfg_; }

  /// Open public SSIDs with ground-truth APs within `radius_m` of `pos`,
  /// ranked by local visit propensity (for world::Locale).
  std::vector<std::string> local_public_ssids(medium::Position pos,
                                              double radius_m = 800.0) const;

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
};

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

  /// Sample the database size at this interval (Fig 1a). Unset = no series.
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
  /// granularity; see sim/parallel and DESIGN.md §5f). run_campaign
  /// validates these in the same style as Medium::Config: deadline_s >= 0
  /// (NaN rejected), max_sim_events any, max_retries in [0, 8]. ---

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

/// Wallclock split of one run. Always measured (three steady_clock reads);
/// never part of any result comparison — wallclock is not deterministic.
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
  /// bench/wallclock).
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
  /// snapshot (compare .deterministic() across thread counts) and the trace
  /// ring's retained records, oldest first.
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

/// Memoized expensive run setup, shared across the runs of one campaign.
///
/// Profiling (BENCH_wallclock.json): per-run setup is ~18% of serial
/// campaign wallclock, dominated by two pure functions of (World, a few
/// RunConfig fields) recomputed identically for every run — the WiGLE seed
/// scan over the whole AP snapshot and the venue-locale SSID ranking behind
/// the per-run PnlModel copy. The cache keys those inputs with the same
/// FNV-1a construction the checkpoint config hash uses and hands out one
/// immutable snapshot per distinct setup; runs copy from the snapshot
/// (copy-on-write: the attacker's database and the PNL crowd counters
/// mutate per-run, so each run assigns the shared seeded state into its own
/// instances and never writes through the snapshot).
///
/// Byte-identity: the snapshot stores exactly what the incremental path
/// computes — seed_from_wigle / seed_carrier_ssids are pure functions of
/// (wigle, heat, venue position, seed config, t = 0) and every run seeds at
/// sim time 0, so assigning the snapshot database is indistinguishable from
/// reseeding; the PnlModel locale is a pure function of (world, venue). The
/// warm-start equivalence test in tests/parallel_test.cpp pins this.
///
/// Thread safety: lookup_or_build is mutex-serialised (misses build inside
/// the lock — the first run of each distinct setup pays once); the returned
/// snapshot is immutable and safe to read concurrently. A cache binds to
/// the first World it sees and throws on a different one — setup state is
/// world-derived, so sharing across worlds would serve wrong data.
class SetupCache {
 public:
  struct Snapshot {
    /// Database state after WiGLE (and carrier) seeding at sim time 0.
    core::SsidDatabase seeded_db;
    /// World PNL model with the venue Locale already applied.
    world::PnlModel pnl;
  };

  /// The snapshot for `cfg`'s setup-relevant fields, building it on first
  /// use. Throws std::logic_error when called with a different World than
  /// the cache was first used with.
  std::shared_ptr<const Snapshot> lookup_or_build(const World& world,
                                                  const RunConfig& cfg);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  mutable std::mutex mu_;
  const World* world_ = nullptr;  // bound on first lookup
  std::unordered_map<std::uint64_t, std::shared_ptr<const Snapshot>> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Deploy `cfg.kind` in `cfg.venue` for `cfg.duration` and analyse. Pure in
/// the world: the output depends only on (world seed, cfg), never on other
/// runs — the per-run RNG is seeded world.seed ^ run_seed*φ and the PNL
/// model is copied, so repeated or concurrent runs are bit-identical.
RunOutput run_campaign(const World& world, const RunConfig& cfg);

/// As above, sharing memoized setup state across runs via `setup_cache`
/// (nullptr = cold setup every run). Output is byte-identical with or
/// without the cache — see SetupCache.
RunOutput run_campaign(const World& world, const RunConfig& cfg,
                       SetupCache* setup_cache);

}  // namespace cityhunter::sim
