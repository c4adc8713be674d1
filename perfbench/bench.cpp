// The repository benchmark driver, built twice from this file:
//
//   perfbench        --workload <venue_mix|lossy_campaign|city_district>
//                    --seed <n> --seconds <s> --trace 0 [--scratch <dir>]
//   perfbench_traced ... --trace 1 [--spans <file>] [--scratch <dir>]
//
// perfbench runs on the stock allocator; perfbench_traced also counts heap
// allocations (alloc_count.h) for medium.allocs_per_frame. Each refuses the
// other's --trace value, so no end-to-end figure pays for that counter.
//
// Workloads (inputs are generated from --seed; the simulator only ever sees
// the generated configs):
//   venue_mix       the fig6 mix: City-Hunter in the paper's four venues x 12
//                   hourly slots, two independent crowds per slot, on a
//                   perfect channel, run one run_campaign at a time through a
//                   benchmark-owned SetupCache (closed loop, one client).
//   lossy_campaign  the same slots and crowds with the fault model on,
//                   MAC-randomizing phones and the deauth extension, through
//                   run_campaigns with min(4, nproc) workers and
//                   checkpointing (closed loop, that many workers).
//   city_district   run_sharded_city on the default 20k-radio, 8x2-district
//                   city at 4 shards with min(4, nproc) workers, 60
//                   simulated seconds per call.
//
// --trace 0 times untraced passes for --seconds and reports the end-to-end
// metrics; --trace 1 makes one separate traced run and reports the per-layer
// metrics. Every layer is measured from outside: the driver times only its
// own calls into public functions and reads only counters the simulator
// already exposes (RunOutput, the obs metrics snapshot, ParallelStats,
// ShardStats). The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit code 0 only when every output check passed.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if PERFBENCH_COUNT_ALLOCS
#include "alloc_count.h"
constexpr bool kTracedBuild = true;
#else
namespace perfbench {
inline std::uint64_t allocations() { return 0; }
}  // namespace perfbench
constexpr bool kTracedBuild = false;
#endif
#include "measure.h"
#include "client/legit_ap.h"
#include "core/cityhunter.h"
#include "core/deauth.h"
#include "core/wigle_seed.h"
#include "dot11/serialize.h"
#include "medium/medium.h"
#include "mobility/population.h"
#include "obs/delivery_log.h"
#include "obs/trace.h"
#include "sim/parallel.h"
#include "sim/scenario.h"
#include "sim/shard.h"
#include "stats/campaign.h"

using namespace cityhunter;
using perfbench::median;
using perfbench::percentile;
using perfbench::ratio;
using perfbench::Span;

namespace {

// ---------------------------------------------------------------- settings

constexpr double kSlotMinutes = 10.0;
constexpr int kCrowdsPerSlot = 2;  // independent crowds per slot and pass
constexpr int kVenues = 4;
constexpr int kSlots = 12;
constexpr int kWorldBuilds = 7;  // setup repeats; setup_s takes the median
constexpr int kMinPasses = 3;
constexpr std::uint64_t kWorldSeed = 42;  // the repository's paper city
// 60 simulated seconds cross ~19 barrier epochs and hand ~100 walkers
// between shards; at 10 s no walker has reached a shard boundary yet.
constexpr double kCitySimSeconds = 60.0;
constexpr int kCityShards = 4;
// Share of phones that randomize their MAC per scan on lossy_campaign: the
// midpoint bench/ablation_mac_randomization sweeps.
constexpr double kMacRandomizingShare = 0.5;
constexpr int kResponseBudget = 40;

// Pinned lossless outputs: one canonical run per venue (slot 4, run seeds
// 1001..1004, 10 simulated minutes, world seed 42). A correct speed-up
// leaves these unchanged.
constexpr std::uint64_t kPinnedVenueDigest = 0x68c716a51f2a770bULL;

// ------------------------------------------------------------------ clocks

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

/// Moves the one serial client over every allowed CPU, one run at a time.
/// On a shared host the vCPUs run at different speeds (up to 1.5x apart on
/// a 4-vCPU VM, changing over tens of seconds), and an unpinned thread
/// stays on whichever one it started on, so a serial pass would time one
/// vCPU. place(i) pins the calling thread to the CPU for run i of this
/// pass; next_pass() shifts that by one, so a run meets every CPU over as
/// many passes. The thread's own affinity is restored on destruction. With
/// fewer than two allowed CPUs, or when pinning is refused, it does
/// nothing.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) cpus_.clear();
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  std::size_t cpus() const { return cpus_.size(); }
  void next_pass() { ++offset_; }
  void place(std::size_t run) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(run + offset_) % cpus_.size()], &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
      cpus_.clear();
    }
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t offset_ = 0;
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ----------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  /// One output check: counts as attempted, and as failed when !ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

// ------------------------------------------------------------------ tracer

/// In-memory span recorder; every span of one traced run shares run_id and
/// is written out once, at the end.
class Tracer {
 public:
  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  int open(const std::string& name, int parent) {
    spans_.push_back({name, parent, now_s(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = now_s(); }
  int add(const std::string& name, int parent, double start, double end) {
    spans_.push_back({name, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }
  double self_time_of(const std::string& name) const {
    return perfbench::self_time_of(spans_, name);
  }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"run_id\": \"" << run_id_ << "\", \"spans\": [";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n  {\"id\": %zu, \"parent\": %d, \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"name\": \"",
                    i == 0 ? "" : ",", i, s.parent, s.start_s, s.end_s);
      os << buf << s.name << "\", \"run_id\": \"" << run_id_ << "\"}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  std::string run_id_;
  std::vector<Span> spans_;
};

// --------------------------------------------------------- venue workloads

std::vector<sim::RunConfig> venue_configs(const sim::World& world,
                                          std::uint64_t seed, bool lossy) {
  const mobility::VenueConfig venues[kVenues] = {
      mobility::subway_passage_venue(), mobility::canteen_venue(),
      mobility::shopping_center_venue(), mobility::railway_station_venue()};
  std::vector<sim::RunConfig> runs;
  for (int crowd = 0; crowd < kCrowdsPerSlot; ++crowd) {
    for (int v = 0; v < kVenues; ++v) {
      for (int slot = 0; slot < kSlots; ++slot) {
        sim::RunConfig run;
        run.kind = sim::AttackerKind::kCityHunter;
        run.venue = venues[v];
        const auto s = static_cast<std::size_t>(slot);
        run.slot.expected_clients =
            venues[v].hourly_clients[s] * (kSlotMinutes / 60.0);
        run.slot.group_fraction = venues[v].hourly_group_fraction[s];
        run.duration = support::SimTime::minutes(kSlotMinutes);
        run.run_seed = splitmix(seed * 10000 +
                                static_cast<std::uint64_t>(
                                    crowd * 1000 + v * 100 + slot + 1));
        if (lossy) {
          medium::Medium::Config m = world.config().medium;
          m.fault.enabled = true;
          m.fault.ambient_loss = 0.2;
          m.fault.corruption_rate = 0.08;
          run.medium = m;
          run.slot.mac_randomizing_fraction = kMacRandomizingShare;
          run.deauth = sim::DeauthScenario{};
        }
        runs.push_back(std::move(run));
      }
    }
  }
  if (lossy) {
    // Largest crowds first: the pool takes runs in input order, so this
    // keeps one long run from finishing alone at the end of a pass.
    std::stable_sort(runs.begin(), runs.end(),
                     [](const auto& a, const auto& b) {
                       return a.slot.expected_clients >
                              b.slot.expected_clients;
                     });
  }
  return runs;
}

double simulated_s(const std::vector<sim::RunConfig>& runs) {
  double total = 0.0;
  for (const auto& r : runs) total += r.duration.sec();
  return total;
}

/// Every RunOutput field a correct speed-up must leave unchanged.
bool identical(const sim::RunOutput& a, const sim::RunOutput& b) {
  return a.result == b.result && a.series == b.series &&
         a.window_rates == b.window_rates &&
         a.final_pb_size == b.final_pb_size &&
         a.final_fb_size == b.final_fb_size &&
         a.db_final_size == b.db_final_size &&
         a.db_from_direct == b.db_from_direct &&
         a.deauths_sent == b.deauths_sent &&
         a.frames_transmitted == b.frames_transmitted &&
         a.frames_delivered == b.frames_delivered &&
         a.medium_stats == b.medium_stats && a.queue_stats == b.queue_stats;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of a run's CampaignResult and queue counters.
std::uint64_t output_digest(std::uint64_t h, const sim::RunOutput& o) {
  const auto& r = o.result;
  for (const std::uint64_t v :
       {r.total_clients, r.direct_clients, r.broadcast_clients,
        r.direct_connected, r.broadcast_connected, r.hits_from_wigle,
        r.hits_from_direct_db, r.hits_from_carrier_seed,
        r.hits_via_popularity, r.hits_via_popularity_ghost,
        r.hits_via_freshness, r.hits_via_freshness_ghost}) {
    h = fnv(h, v);
  }
  for (const int v : r.ssids_sent_connected) h = fnv(h, static_cast<std::uint64_t>(v));
  for (const int v : r.ssids_sent_all_broadcast) h = fnv(h, static_cast<std::uint64_t>(v));
  const auto& q = o.queue_stats;
  for (const std::uint64_t v : {q.scheduled, q.processed, q.peak_pending,
                                q.slab_slots, q.slab_reuses}) {
    h = fnv(h, v);
  }
  return h;
}

double metric_value(const sim::RunOutput& o, const char* name) {
  const obs::MetricPoint* p = o.metrics.find(name);
  return p != nullptr ? p->value : 0.0;
}

/// Paper protocol rules every venue run must keep: at most 40 responses per
/// scan window (needs the obs snapshot) and PB + FB = 40.
void check_protocol(Report& rep, const std::vector<sim::RunOutput>& outs) {
  bool budget_ok = true;
  bool buffers_ok = true;
  for (const auto& o : outs) {
    if (!o.metrics.points.empty()) {
      budget_ok = budget_ok &&
                  metric_value(o, "attacker.responses_sent") <=
                      kResponseBudget * metric_value(o, "attacker.scan_windows");
    }
    buffers_ok = buffers_ok &&
                 o.final_pb_size + o.final_fb_size == kResponseBudget;
  }
  rep.check(budget_ok, "responses_sent <= 40 x scan_windows on every run");
  rep.check(buffers_ok, "final PB + FB = 40 on every run");
}

void check_same(Report& rep, const std::vector<sim::RunOutput>& got,
                const std::vector<sim::RunOutput>& want, const char* what) {
  bool same = got.size() == want.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = !got[i].error.failed() && identical(got[i], want[i]);
  }
  rep.check(same, what);
}

struct PassTiming {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> run_ms;       // per-run wall
  std::vector<double> run_cpu_s;    // per-run process CPU (serial passes)
};

/// One pass over the mix. venue_mix: serial run_campaign calls through a
/// fresh SetupCache, each on the CPU `rotation` picks when one is given.
/// lossy_campaign: one run_campaigns call.
std::vector<sim::RunOutput> run_pass(const sim::World& world,
                                     const std::vector<sim::RunConfig>& runs,
                                     bool lossy, const std::string& ckpt,
                                     PassTiming& t,
                                     sim::ParallelStats* pstats = nullptr,
                                     CpuRotation* rotation = nullptr) {
  std::vector<sim::RunOutput> outs;
  const double c0 = cpu_s();
  const double w0 = now_s();
  if (lossy) {
    sim::ParallelConfig pc(workers());
    pc.checkpoint_path = ckpt;
    pc.checkpoint_every = 8;
    outs = sim::run_campaigns(world, runs, pc, pstats);
    for (const auto& o : outs) {
      t.run_ms.push_back(
          1e3 * (o.phases.setup_s + o.phases.sim_s + o.phases.analysis_s));
    }
  } else {
    sim::SetupCache cache;
    outs.reserve(runs.size());
    for (const auto& cfg : runs) {
      if (rotation != nullptr) rotation->place(outs.size());
      const double r0 = now_s();
      const double rc0 = cpu_s();
      outs.push_back(sim::run_campaign(world, cfg, &cache));
      t.run_cpu_s.push_back(cpu_s() - rc0);
      t.run_ms.push_back(1e3 * (now_s() - r0));
    }
  }
  t.wall_s = now_s() - w0;
  t.cpu_s = cpu_s() - c0;
  if (!ckpt.empty()) std::remove(ckpt.c_str());
  return outs;
}

/// Obs on for the metrics snapshot; the trace ring is not read, so it is
/// kept at one record (checkpoints would otherwise carry 16k per run).
std::vector<sim::RunConfig> with_obs(std::vector<sim::RunConfig> runs) {
  for (auto& r : runs) {
    r.obs.enabled = true;
    r.obs.trace_capacity = 1;
  }
  return runs;
}

/// Serial obs-on reference pass: the outputs every timed pass must equal,
/// plus the protocol checks that need the metrics snapshot.
std::vector<sim::RunOutput> reference_pass(
    Report& rep, const sim::World& world,
    const std::vector<sim::RunConfig>& runs) {
  sim::SetupCache cache;
  std::vector<sim::RunOutput> ref;
  ref.reserve(runs.size());
  for (const auto& cfg : with_obs(runs)) {
    ref.push_back(sim::run_campaign(world, cfg, &cache));
  }
  check_protocol(rep, ref);
  return ref;
}

void check_pinned(Report& rep, const sim::World& world) {
  auto runs = venue_configs(world, 0, false);
  std::uint64_t h = 1469598103934665603ULL;
  for (int v = 0; v < kVenues; ++v) {
    sim::RunConfig cfg = runs[static_cast<std::size_t>(v * kSlots + 4)];
    cfg.run_seed = 1001 + static_cast<std::uint64_t>(v);
    h = output_digest(h, sim::run_campaign(world, cfg));
  }
  std::printf("pinned reference digest: 0x%016" PRIx64 "\n", h);
  rep.check(h == kPinnedVenueDigest,
            "lossless canonical runs match the pinned digest");
}

sim::World build_world_timed(std::vector<double>& build_s) {
  sim::ScenarioConfig sc;
  sc.seed = kWorldSeed;
  const double t0 = now_s();
  sim::World world(sc);
  build_s.push_back(now_s() - t0);
  return world;
}

void venue_e2e(Report& rep, std::uint64_t seed, double seconds, bool lossy,
               const std::string& scratch) {
  std::vector<double> build_s;
  for (int i = 0; i + 1 < kWorldBuilds; ++i) (void)build_world_timed(build_s);
  const sim::World world = build_world_timed(build_s);
  const auto runs = venue_configs(world, seed, lossy);
  const auto ref = reference_pass(rep, world, runs);
  if (!lossy) check_pinned(rep, world);

  if (perfbench::highest_reportable_percentile(runs.size()) < 0.75) {
    rep.check(false, "enough runs per pass to leave 10 beyond p75");
  }
  const std::string ckpt = lossy ? scratch + "/lossy.ckpt" : "";
  // [pass][run]: every pass holds the same runs in the same order.
  std::vector<std::vector<double>> run_ms, run_cpu, run_setup;
  std::vector<double> pass_wall, pass_cpu;
  CpuRotation rotation;  // lossy_campaign's pool already spans the CPUs
  const double t_end = now_s() + seconds;
  for (int pass = 0; pass < kMinPasses || now_s() < t_end; ++pass) {
    PassTiming t;
    const auto outs = run_pass(world, runs, lossy, ckpt, t, nullptr,
                               lossy ? nullptr : &rotation);
    rotation.next_pass();
    rep.attempted += outs.size();
    rep.failed += sim::failed_runs(outs);
    check_same(rep, outs, ref,
               lossy ? "parallel checkpointed pass equals the serial pass"
                     : "pass equals the reference pass");
    std::vector<double> setup;
    for (const auto& o : outs) setup.push_back(o.phases.setup_s);
    run_ms.push_back(std::move(t.run_ms));
    run_cpu.push_back(std::move(t.run_cpu_s));
    run_setup.push_back(std::move(setup));
    pass_wall.push_back(t.wall_s);
    pass_cpu.push_back(t.cpu_s);
  }
  std::printf("pass walls (s):");
  for (const double w : pass_wall) std::printf(" %.3f", w);
  std::printf("\n");
  std::printf("timed passes: %zu, runs per pass: %zu (p75 leaves %zu beyond "
              "it); each run's figures are its median over the passes\n",
              pass_wall.size(), runs.size(),
              perfbench::samples_beyond(runs.size(), 0.75));
  if (!lossy) {
    std::printf("serial runs moved in turn over %zu CPUs\n",
                rotation.cpus());
  }
  // Each run's median over the passes, so a slow stretch of the host moves
  // only the runs it hit, in the passes it hit. A serial pass is the sum of
  // its runs; a parallel pass is not, so lossy_campaign takes whole passes.
  const auto ms = perfbench::run_medians(run_ms);
  const double wall_s = lossy ? median(pass_wall) : perfbench::sum(ms) / 1e3;
  const double cpu = lossy ? median(pass_cpu)
                           : perfbench::sum(perfbench::run_medians(run_cpu));
  rep.add("sim_rate", perfbench::sim_rate(simulated_s(runs), wall_s), "s/s");
  rep.add("run_ms_p50", percentile(ms, 0.5), "ms");
  rep.add("run_ms_p75", percentile(ms, 0.75), "ms");
  rep.add("setup_s",
          median(build_s) + perfbench::sum(perfbench::run_medians(run_setup)),
          "s");
  rep.add("cpu_s", cpu, "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
}

// ----------------------------------------------------------- city district

sim::ShardedCityConfig city_config(std::uint64_t seed, int shards) {
  sim::ShardedCityConfig cfg;
  cfg.seed = splitmix(seed) & 0xffffffffULL;
  cfg.shards = shards;
  cfg.workers = workers();
  cfg.duration = support::SimTime::seconds(kCitySimSeconds);
  return cfg;
}

bool same_city(const sim::ShardedCityResult& a,
               const sim::ShardedCityResult& b) {
  return a.delivery_digest == b.delivery_digest &&
         a.transmissions == b.transmissions && a.deliveries == b.deliveries &&
         a.gap_silences == b.gap_silences;
}

/// run_sharded_city that counts a throw as a failed call.
bool city_call(Report& rep, const sim::ShardedCityConfig& cfg,
               sim::ShardedCityResult& out) {
  ++rep.attempted;
  try {
    out = sim::run_sharded_city(cfg);
    return true;
  } catch (const std::exception& e) {
    ++rep.failed;
    std::printf("CALL FAILED: run_sharded_city: %s\n", e.what());
    return false;
  }
}

void city_e2e(Report& rep, std::uint64_t seed, double seconds) {
  sim::ShardedCityResult base;
  if (!city_call(rep, city_config(seed, 1), base)) return;
  const auto cfg = city_config(seed, kCityShards);
  // A run here is one shard's event loop in one call (ShardStats::busy_s),
  // so run_ms is not the call wall that sim_rate already reports. A 60 s
  // call takes several host seconds, so there are only 12-16 such runs:
  // fewer than the 10-beyond-p75 the venue passes keep.
  std::vector<double> rate, shard_run_ms, setup, cpu;
  std::uint64_t epochs = 0, handoffs = 0;
  const double t_end = now_s() + seconds;
  for (int call = 0; call < kMinPasses || now_s() < t_end; ++call) {
    const double c0 = cpu_s();
    sim::ShardedCityResult r;
    if (!city_call(rep, cfg, r)) continue;
    cpu.push_back(cpu_s() - c0);
    rep.check(same_city(r, base), "4-shard call equals the 1-shard pass");
    rate.push_back(perfbench::sim_rate(kCitySimSeconds, r.wall_s));
    for (const auto& s : r.per_shard) shard_run_ms.push_back(1e3 * s.busy_s);
    setup.push_back(r.phases.setup_s);
    epochs = static_cast<std::uint64_t>(r.epochs);
    handoffs = r.handoffs;
  }
  std::printf("timed calls: %zu, %" PRIu64 " epochs and %" PRIu64
              " handoffs per call; run_ms over %zu shard runs, p75 leaves "
              "%zu beyond it\n",
              rate.size(), epochs, handoffs, shard_run_ms.size(),
              perfbench::samples_beyond(shard_run_ms.size(), 0.75));
  rep.add("sim_rate", median(rate), "s/s");
  rep.add("run_ms_p50", percentile(shard_run_ms, 0.5), "ms");
  rep.add("run_ms_p75", percentile(shard_run_ms, 0.75), "ms");
  rep.add("setup_s", median(setup), "s");
  rep.add("cpu_s", median(cpu), "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
}

// ------------------------------------------------------------- traced runs

/// Every per-layer metric, in report order, with its unit. A layer a
/// workload bypasses reads 0 there.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"world.build_s", "s"},
    {"sim.run_setup_s", "s"},
    {"sim.loop_s", "s"},
    {"stats.analysis_s", "s"},
    {"self.run_campaign_s", "s"},
    {"parallel.utilization", "ratio"},
    {"parallel.busy_skew", "ratio"},
    {"checkpoint.writes", "count"},
    {"checkpoint.bytes", "bytes"},
    {"shard.epochs", "count"},
    {"shard.handoffs", "count"},
    {"shard.gap_silences", "count"},
    {"shard.busy_s_max", "s"},
    {"shard.barrier_wait_share", "ratio"},
    {"shard.imbalance", "ratio"},
    {"self.shard_barrier_s", "s"},
    {"queue.events", "count"},
    {"queue.peak_pending", "count"},
    {"queue.slab_reuse_ratio", "ratio"},
    {"queue.ns_per_event", "ns"},
    {"medium.transmissions", "count"},
    {"medium.deliveries", "count"},
    {"medium.deliveries_per_tx", "ratio"},
    {"medium.candidates_per_delivery", "ratio"},
    {"medium.wasted_candidates", "count"},
    {"medium.pathloss_cache_hit_ratio", "ratio"},
    {"medium.allocs_per_frame", "ratio"},
    {"fault.frames_lost", "count"},
    {"fault.retries", "count"},
    {"fault.drop_erasure", "count"},
    {"fault.drop_collision", "count"},
    {"fault.drop_crc_reject", "count"},
    {"dot11.frames_coded", "count"},
    {"dot11.ns_per_roundtrip", "ns"},
    {"client.phones", "count"},
    {"client.rx_frames", "count"},
    {"client.rx_addressed_ratio", "ratio"},
    {"client.joins", "count"},
    {"attacker.on_frame_calls", "count"},
    {"attacker.on_frame_us", "us"},
    {"attacker.scan_windows", "count"},
    {"attacker.responses_per_window", "ratio"},
    {"attacker.clients_seen", "count"},
    {"attacker.responses_per_hit", "ratio"},
    {"deauth.sent", "count"},
    {"mobility.clients_spawned", "count"},
    {"self.attacker_s", "s"},
    {"self.dot11_s", "s"},
    {"self.queue_s", "s"},
    {"self.medium_client_s", "s"},
    {"trace.model_gap_pct", "%"},
    {"trace.overhead_pct", "%"},
};

/// Collects per-layer values by name and reports them in table order.
struct LayerValues {
  std::vector<std::pair<std::string, double>> values;

  void set(const std::string& name, double v) { values.emplace_back(name, v); }
  void report(Report& rep) const {
    for (const LayerMetric& m : kLayerMetrics) {
      double v = 0.0;
      for (const auto& [n, x] : values) {
        if (n == m.name) v = x;
      }
      rep.add(m.name, v, m.unit);
    }
  }
};

/// The attacker's FrameSink wrapped through Radio::set_sink: times every
/// on_frame call and records it as a child span of the current loop span.
class TimedSink final : public medium::FrameSink {
 public:
  TimedSink(medium::FrameSink& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void set_parent(int parent) { parent_ = parent; }
  void on_frame(const dot11::Frame& frame,
                const medium::RxInfo& info) override {
    const double t0 = now_s();
    inner_.on_frame(frame, info);
    const double t1 = now_s();
    ++calls;
    busy_s += t1 - t0;
    tracer_.add("attacker.on_frame", parent_, t0, t1);
  }

  std::uint64_t calls = 0;
  double busy_s = 0.0;

 private:
  medium::FrameSink& inner_;
  Tracer& tracer_;
  int parent_ = -1;
};

struct WiredRun {
  sim::RunOutput out;
  std::uint64_t on_frame_calls = 0;
  std::uint64_t phones = 0;          // phones that probed at least once
  std::uint64_t joins = 0;           // phones lured onto the attacker
  std::uint64_t spawned = 0;
  std::uint64_t phone_rx = 0;        // deliveries to phone sinks
  std::uint64_t phone_to_phone = 0;  // of which sent by another phone
  std::uint64_t attacker_tx = 0;
  double loop_s = 0.0;               // wall of the traced event loop
  bool log_complete = false;
};

/// One City-Hunter venue run wired from public parts, exactly as
/// sim::run_campaign wires it (cold setup), so the attacker's sink can be
/// interposed and the medium's delivery records read. The caller asserts the
/// outputs equal run_campaign's for the same config.
WiredRun wired_run(const sim::World& world, const sim::RunConfig& cfg,
                   std::size_t log_capacity, Tracer& tracer, int parent) {
  WiredRun w;
  const int span = tracer.open("wired_run", parent);
  support::Rng rng(world.config().seed ^
                   (cfg.run_seed * 0x9e3779b97f4a7c15ULL));
  obs::TraceBuffer log(log_capacity);
  medium::EventQueue events;
  medium::Medium::Config mcfg =
      cfg.medium ? *cfg.medium : world.config().medium;
  if (mcfg.fault.enabled) mcfg.fault.seed = rng.fork("fault").engine()();
  medium::Medium medium(events, mcfg);
  medium.set_trace(&log);

  core::Attacker::BaseConfig base;
  base.bssid = *dot11::MacAddress::parse("0a:7e:64:c1:7e:01");
  base.pos = {0, 0};
  base.channel = 6;
  base.tx_power_dbm = 20.0;
  const auto attack_pos = sim::venue_city_position(cfg.venue.name);
  auto ch_cfg = cfg.cityhunter;
  ch_cfg.base = base;
  core::CityHunter hunter(medium, ch_cfg, rng.fork("selector"));
  core::seed_from_wigle(hunter.database(), world.wigle(), &world.heat(),
                        attack_pos, cfg.wigle_seed, events.now());
  hunter.start();
  TimedSink sink(hunter, tracer);
  hunter.radio().set_sink(&sink);
  const medium::RadioId attacker_id = hunter.radio().id();
  medium::RadioId legit_id = 0;

  std::unique_ptr<client::LegitimateAp> legit_ap;
  std::unique_ptr<core::DeauthModule> deauth;
  mobility::SlotParams slot = cfg.slot;
  if (cfg.deauth) {
    client::LegitimateAp::Config ap;
    ap.ssid = cfg.venue.venue_ssids.empty() ? "Venue-WiFi"
                                            : cfg.venue.venue_ssids[0];
    ap.bssid = *dot11::MacAddress::parse("02:13:37:00:00:01");
    ap.pos = {25, 10};
    ap.open = true;
    ap.channel = 6;
    legit_ap = std::make_unique<client::LegitimateAp>(medium, ap);
    legit_ap->start();
    legit_id = attacker_id + 1;  // radio ids are issued monotonically
    slot.pre_associated_fraction = cfg.deauth->pre_associated_fraction;
    slot.legit_ap = ap.bssid;
    if (cfg.deauth->enable_deauth) {
      core::DeauthModule::Config dm;
      dm.target_bssids = {ap.bssid};
      dm.interval = cfg.deauth->interval;
      deauth = std::make_unique<core::DeauthModule>(medium, hunter.radio(),
                                                    dm);
      deauth->start();
    }
  }

  world::PnlModel pnl = world.pnl_model();
  world::Locale locale;
  locale.ranked_ssids = world.local_public_ssids(attack_pos, 500.0);
  locale.bias = 0.45;
  pnl.set_locale(std::move(locale));
  auto phone_cfg = world.config().phone;
  if (cfg.venue.mean_scan_interval_s > 0) {
    phone_cfg.mean_scan_interval =
        support::SimTime::seconds(cfg.venue.mean_scan_interval_s);
  }
  mobility::VenuePopulation population(medium, pnl, cfg.venue, phone_cfg,
                                       rng.fork("population"));
  population.schedule_slot(cfg.duration, slot);

  const int loop = tracer.open("wired.loop", span);
  sink.set_parent(loop);
  events.run_until(cfg.duration);
  tracer.close(loop);
  w.loop_s = tracer.spans()[static_cast<std::size_t>(loop)].duration();
  hunter.radio().set_sink(&hunter);

  sim::RunOutput& out = w.out;
  out.result = stats::analyze(hunter, sim::to_string(cfg.kind));
  out.window_rates = stats::realtime_hb(hunter, support::SimTime::minutes(2),
                                        cfg.duration);
  out.db_final_size = hunter.database().size();
  out.db_from_direct =
      hunter.database().count_from(core::SsidSource::kDirectProbe);
  out.final_pb_size = hunter.selector().pb_size();
  out.final_fb_size = hunter.selector().fb_size();
  if (deauth) out.deauths_sent = deauth->deauths_sent();
  out.frames_transmitted = medium.transmissions();
  out.frames_delivered = medium.deliveries();
  out.medium_stats = stats::medium_stats(medium);
  out.queue_stats = events.stats();

  w.on_frame_calls = sink.calls;
  w.spawned = population.clients_spawned();
  for (const auto& phone : population.phones()) {
    w.phones += phone->ever_probed() ? 1 : 0;
    w.joins += phone->connected_to_attacker() ? 1 : 0;
  }
  w.log_complete = log.dropped() == 0;
  for (const obs::TraceRecord& r : log.chronological()) {
    if (r.event == obs::Event::kTransmit) {
      w.attacker_tx += r.a == attacker_id ? 1 : 0;
    } else if (r.event == obs::Event::kDeliver && r.a != attacker_id &&
               r.a != legit_id) {
      ++w.phone_rx;
      w.phone_to_phone += (r.b != attacker_id && r.b != legit_id) ? 1 : 0;
    }
  }
  tracer.close(span);
  return w;
}

/// ns of one dot11::serialize_into + parse_into round trip (the pair
/// Medium::transmit runs per frame) for each frame of a mix.
std::vector<double> dot11_replay_ns(Report& rep, Tracer& tracer,
                                    const std::vector<dot11::Frame>& mix) {
  const int span = tracer.open("dot11.replay", -1);
  constexpr int kIters = 20000;
  std::vector<std::uint8_t> wire;
  dot11::Frame slot;
  std::vector<double> ns;
  bool parsed = true;
  for (const dot11::Frame& frame : mix) {
    for (int i = 0; i < 100; ++i) {  // warm the scratch buffers
      dot11::serialize_into(frame, wire);
      parsed = dot11::parse_into(wire, slot) && parsed;
    }
    const double t0 = now_s();
    for (int i = 0; i < kIters; ++i) {
      dot11::serialize_into(frame, wire);
      parsed = dot11::parse_into(wire, slot) && parsed;
    }
    ns.push_back(1e9 * (now_s() - t0) / kIters);
    parsed = parsed && slot == frame;
  }
  tracer.close(span);
  rep.check(parsed, "dot11 replay frames round-trip");
  return ns;
}

/// Self-rescheduling no-op event for the queue replay (hold model).
struct Refire {
  medium::EventQueue* queue;
  std::uint64_t* lcg;
  void operator()() const {
    *lcg = *lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    queue->post_in(support::SimTime::microseconds(
                       1 + static_cast<std::int64_t>((*lcg >> 40) % 100000)),
                   Refire{queue, lcg});
  }
};

/// Mean ns per EventQueue::step of a bare event at a pending depth, the
/// queue layer's own dispatch cost.
double queue_replay_ns(Tracer& tracer, std::size_t depth) {
  const int span = tracer.open("queue.replay", -1);
  depth = std::clamp<std::size_t>(depth, 1, std::size_t{1} << 20);
  medium::EventQueue queue;
  std::uint64_t lcg = 12345;
  for (std::size_t i = 0; i < depth; ++i) Refire{&queue, &lcg}();
  constexpr int kSteps = 400000;
  for (int i = 0; i < kSteps / 10; ++i) queue.step();
  const double t0 = now_s();
  for (int i = 0; i < kSteps; ++i) queue.step();
  const double ns = 1e9 * (now_s() - t0) / kSteps;
  tracer.close(span);
  return ns;
}

/// Replay receiver. Venue replays filter on addr1, a phone's first check on
/// every frame; city replays log every delivery, as the city's own sinks do.
class ReplaySink final : public medium::FrameSink {
 public:
  ReplaySink(dot11::MacAddress mac, obs::DeliveryLog* log, std::uint64_t id)
      : mac_(mac), log_(log), id_(id) {}
  void on_frame(const dot11::Frame& frame,
                const medium::RxInfo& info) override {
    if (log_ != nullptr) {
      std::uint64_t tx = 0;
      for (const std::uint8_t o : frame.header.addr2.octets()) tx = tx << 8 | o;
      log_->record(info.time.us(), tx, id_, info.rssi_dbm, info.channel);
      return;
    }
    const auto& to = frame.header.addr1;
    kept_ += (to == mac_ || to.is_broadcast()) ? 1 : 0;
  }

 private:
  dot11::MacAddress mac_;
  obs::DeliveryLog* log_;
  std::uint64_t id_;
  std::uint64_t kept_ = 0;
};

struct FanoutReplay {
  std::size_t radios = 2;  // spread evenly over a disc of radius_m
  double radius_m = 25.0;
  int channels = 1;        // 1, 6 and 11 in turn
  bool log_deliveries = false;
  int threads = 1;         // replays run at once, each on its own Medium
};

/// Mean ns per delivery of Medium fanout on the workload's medium config:
/// the replay's radios, each with its own ReplaySink, take turns sending
/// `frame` at 20 dBm. The frame's codec round trip and its queue event are
/// taken out, so what is left is fanout (candidates out of range included)
/// plus the receivers' sinks: the medium/client share of the loop, measured
/// on its own. Several threads replay at once where the workload's loops
/// run concurrently, so memory contention is in the figure too.
double fanout_replay_ns(Tracer& tracer, const medium::Medium::Config& cfg,
                        const FanoutReplay& fr, const dot11::Frame& frame,
                        double codec_ns, double queue_ns) {
  constexpr int kFrames = 40000;
  const std::size_t radios = std::clamp<std::size_t>(fr.radios, 2, 20000);
  const auto replay = [&](double& fanout_ns, std::uint64_t& deliveries) {
    medium::EventQueue events;
    medium::Medium medium(events, cfg);
    obs::DeliveryLog log;
    const auto mac = *dot11::MacAddress::parse("3c:5a:b4:10:20:31");
    std::vector<ReplaySink> sinks;
    sinks.reserve(radios);
    std::vector<medium::Radio> senders;
    senders.reserve(radios);
    constexpr std::uint8_t kChannels[] = {6, 1, 11};
    constexpr double kGolden = 2.399963229728653;  // radians
    for (std::size_t i = 0; i < radios; ++i) {
      // Sunflower layout: uniform density over the disc.
      const double r = fr.radius_m *
                       std::sqrt((static_cast<double>(i) + 0.5) /
                                 static_cast<double>(radios));
      const double a = kGolden * static_cast<double>(i);
      sinks.emplace_back(mac, fr.log_deliveries ? &log : nullptr, i);
      senders.push_back(medium.attach(
          {r * std::cos(a), r * std::sin(a)},
          kChannels[i % static_cast<std::size_t>(fr.channels)], 20.0,
          &sinks[i]));
    }
    // Senders in a fixed stride order, so consecutive frames come from
    // distant radios, as in a busy loop.
    constexpr std::size_t kStride = 7919;
    std::size_t k = 0;
    for (int i = 0; i < kFrames / 10; ++i, k += kStride) {
      senders[k % radios].transmit(frame);
      events.step();
    }
    const std::uint64_t d0 = medium.deliveries();
    const double t0 = now_s();
    for (int i = 0; i < kFrames; ++i, k += kStride) {
      senders[k % radios].transmit(frame);
      events.step();
    }
    fanout_ns = 1e9 * (now_s() - t0) - kFrames * (codec_ns + queue_ns);
    deliveries = medium.deliveries() - d0;
  };

  const int span = tracer.open("medium.replay", -1);
  const auto n = static_cast<std::size_t>(std::max(1, fr.threads));
  std::vector<double> fanout_ns(n, 0.0);
  std::vector<std::uint64_t> deliveries(n, 0);
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < n; ++t) {
    pool.emplace_back(replay, std::ref(fanout_ns[t]), std::ref(deliveries[t]));
  }
  replay(fanout_ns[0], deliveries[0]);
  for (auto& th : pool) th.join();
  tracer.close(span);
  double ns = 0.0, count = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    ns += fanout_ns[t];
    count += static_cast<double>(deliveries[t]);
  }
  return ratio(ns, count);
}

/// Sum of an obs metric over a pass.
double metric_sum(const std::vector<sim::RunOutput>& outs, const char* name) {
  double total = 0.0;
  for (const auto& o : outs) total += metric_value(o, name);
  return total;
}

void venue_traced(Report& rep, Tracer& tracer, std::uint64_t seed,
                  bool lossy, const std::string& scratch) {
  LayerValues lv;
  std::vector<double> build_s;
  for (int i = 0; i + 1 < kWorldBuilds; ++i) {
    const int s = tracer.open("world.build", -1);
    (void)build_world_timed(build_s);
    tracer.close(s);
  }
  const int ws = tracer.open("world.build", -1);
  const sim::World world = build_world_timed(build_s);
  tracer.close(ws);
  lv.set("world.build_s", median(build_s));

  const auto runs = venue_configs(world, seed, lossy);
  const auto obs_runs = with_obs(runs);
  const std::string ckpt = lossy ? scratch + "/lossy-traced.ckpt" : "";

  // Two untraced serial passes: the reference outputs, and the loop time
  // (summed PhaseProfile::sim_s) that the layer model is held against.
  std::vector<sim::RunOutput> ref;
  std::vector<double> untraced_loop_s;
  std::uint64_t pass_allocs = 0;
  for (int pass = 0; pass < 2; ++pass) {
    PassTiming t;
    const std::uint64_t a0 = perfbench::allocations();
    auto outs = run_pass(world, runs, false, "", t);
    rep.attempted += outs.size();
    rep.failed += sim::failed_runs(outs);
    double loop_s = 0.0;
    for (const auto& o : outs) loop_s += o.phases.sim_s;
    untraced_loop_s.push_back(loop_s);
    if (pass == 0) {
      pass_allocs = perfbench::allocations() - a0;
      ref = std::move(outs);
    } else {
      check_same(rep, outs, ref, "untraced serial passes agree");
    }
  }
  const double untraced_loop = median(untraced_loop_s);

  // The traced pass, obs on: venue_mix through serial run_campaign calls,
  // lossy_campaign through run_campaigns with its pool and checkpoints.
  sim::ParallelStats pstats;
  const int root = tracer.open(lossy ? "run_campaigns" : "pass", -1);
  const double w0 = now_s();
  PassTiming tt;
  const auto traced = run_pass(world, obs_runs, lossy, ckpt, tt, &pstats);
  if (lossy) {
    for (const auto& load : pstats.loads) {
      tracer.add("worker.busy", root, w0, w0 + load.busy_s);
    }
  } else {
    // Re-lay each run's span from its measured wall, children from its
    // PhaseProfile.
    double at = w0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const auto& p = traced[i].phases;
      const int rs =
          tracer.add("run_campaign", root, at, at + tt.run_ms[i] / 1e3);
      double c = at;
      tracer.add("sim.setup", rs, c, c + p.setup_s);
      c += p.setup_s;
      tracer.add("sim.loop", rs, c, c + p.sim_s);
      c += p.sim_s;
      tracer.add("stats.analysis", rs, c, c + p.analysis_s);
      at += tt.run_ms[i] / 1e3;
    }
  }
  tracer.close(root);
  rep.attempted += traced.size();
  rep.failed += sim::failed_runs(traced);
  check_same(rep, traced, ref,
             lossy ? "obs-on parallel pass equals the serial pass"
                   : "obs-on pass equals the untraced pass");
  check_protocol(rep, traced);

  double setup = 0.0, loop = 0.0, analysis = 0.0;
  for (const auto& o : traced) {
    setup += o.phases.setup_s;
    loop += o.phases.sim_s;
    analysis += o.phases.analysis_s;
  }
  lv.set("sim.run_setup_s", setup);
  lv.set("sim.loop_s", loop);
  lv.set("stats.analysis_s", analysis);
  lv.set("self.run_campaign_s",
         lossy ? pstats.busy_s() - (setup + loop + analysis)
               : tracer.self_time_of("run_campaign"));

  if (lossy) {
    double max_busy = 0.0;
    for (const auto& l : pstats.loads) max_busy = std::max(max_busy, l.busy_s);
    lv.set("parallel.utilization", pstats.utilization());
    lv.set("parallel.busy_skew",
           ratio(max_busy, pstats.busy_s() /
                               static_cast<double>(pstats.loads.size())));
    lv.set("checkpoint.writes", static_cast<double>(pstats.checkpoint_writes));
    lv.set("checkpoint.bytes", static_cast<double>(pstats.checkpoint_bytes));
    rep.check(pstats.checkpoint_write_failures == 0, "checkpoint writes ok");
  }

  // Counters from RunOutput and the obs snapshot, summed over the pass.
  double events = 0, scheduled = 0, reuses = 0, peak = 0, tx = 0, rx = 0;
  double lost = 0, retries = 0, deauths = 0, hits = 0;
  for (const auto& o : traced) {
    events += static_cast<double>(o.queue_stats.processed);
    scheduled += static_cast<double>(o.queue_stats.scheduled);
    reuses += static_cast<double>(o.queue_stats.slab_reuses);
    peak = std::max(peak, static_cast<double>(o.queue_stats.peak_pending));
    tx += static_cast<double>(o.frames_transmitted);
    rx += static_cast<double>(o.frames_delivered);
    lost += static_cast<double>(o.medium_stats.frames_lost);
    retries += static_cast<double>(o.medium_stats.retries);
    deauths += static_cast<double>(o.deauths_sent);
    hits += static_cast<double>(o.result.direct_connected +
                                o.result.broadcast_connected);
  }
  lv.set("queue.events", events);
  lv.set("queue.peak_pending", peak);
  lv.set("queue.slab_reuse_ratio", ratio(reuses, scheduled));
  lv.set("medium.transmissions", tx);
  lv.set("medium.deliveries", rx);
  lv.set("medium.deliveries_per_tx", ratio(rx, tx));
  lv.set("medium.candidates_per_delivery",
         ratio(metric_sum(traced, "medium.fanout_simd_candidates") +
                   metric_sum(traced, "medium.fanout_scalar_candidates"),
               rx));
  lv.set("medium.wasted_candidates",
         metric_sum(traced, "medium.fanout_wasted_candidates"));
  const double cache_hits = metric_sum(traced, "medium.pathloss_cache_hits");
  lv.set("medium.pathloss_cache_hit_ratio",
         ratio(cache_hits,
               cache_hits + metric_sum(traced, "medium.pathloss_cache_misses")));
  lv.set("medium.allocs_per_frame",
         ratio(static_cast<double>(pass_allocs), rx));
  lv.set("fault.frames_lost", lost);
  lv.set("fault.retries", retries);
  lv.set("fault.drop_erasure", metric_sum(traced, "fault.drop_erasure"));
  lv.set("fault.drop_collision", metric_sum(traced, "fault.drop_collision"));
  lv.set("fault.drop_crc_reject", metric_sum(traced, "fault.drop_crc_reject"));
  const double windows = metric_sum(traced, "attacker.scan_windows");
  const double responses = metric_sum(traced, "attacker.responses_sent");
  lv.set("attacker.scan_windows", windows);
  lv.set("attacker.responses_per_window", ratio(responses, windows));
  lv.set("attacker.clients_seen", metric_sum(traced, "attacker.clients_seen"));
  lv.set("attacker.responses_per_hit", ratio(responses, hits));
  lv.set("deauth.sent", deauths);

  // The wired pass: every run again, wired from public parts, checked
  // against run_campaign's output before its spans are used.
  const int wp = tracer.open("wired_pass", -1);
  WiredRun total;
  bool wired_same = true;
  bool logs_complete = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& o = ref[i];
    const std::size_t capacity =
        o.frames_delivered + 2 * o.frames_transmitted +
        o.medium_stats.frames_lost + o.medium_stats.retries +
        o.medium_stats.frames_corrupted + 4096;
    const WiredRun w = wired_run(world, runs[i], capacity, tracer, wp);
    wired_same = wired_same && identical(w.out, o);
    logs_complete = logs_complete && w.log_complete;
    total.on_frame_calls += w.on_frame_calls;
    total.phones += w.phones;
    total.joins += w.joins;
    total.spawned += w.spawned;
    total.phone_rx += w.phone_rx;
    total.phone_to_phone += w.phone_to_phone;
    total.attacker_tx += w.attacker_tx;
    total.loop_s += w.loop_s;
  }
  tracer.close(wp);
  // What the interposed sink spans and the delivery log cost the loop.
  lv.set("trace.overhead_pct",
         100.0 * ratio(total.loop_s - untraced_loop, untraced_loop));
  rep.check(wired_same, "wired runs equal run_campaign's outputs");
  rep.check(logs_complete, "wired delivery logs kept every record");
  const double on_frame_s = tracer.self_time_of("attacker.on_frame");
  lv.set("attacker.on_frame_calls", static_cast<double>(total.on_frame_calls));
  lv.set("attacker.on_frame_us",
         1e6 * ratio(on_frame_s, static_cast<double>(total.on_frame_calls)));
  lv.set("client.phones", static_cast<double>(total.phones));
  lv.set("client.rx_frames", static_cast<double>(total.phone_rx));
  lv.set("client.rx_addressed_ratio",
         perfbench::rx_addressed_ratio(total.phone_to_phone, total.attacker_tx,
                                       total.phone_rx));
  lv.set("client.joins", static_cast<double>(total.joins));
  lv.set("mobility.clients_spawned", static_cast<double>(total.spawned));

  // Replays: the dot11 codec over the pass's frame mix (attacker probe
  // responses, the rest phone probe requests), the bare event queue at the
  // pass's peak depth, and medium fanout of an attacker response to as many
  // phones as the pass's deliveries per transmission, all in range (the
  // venue's candidates nearly all are: medium.candidates_per_delivery).
  const auto attacker_mac = *dot11::MacAddress::parse("0a:7e:64:c1:7e:01");
  const auto phone_mac = *dot11::MacAddress::parse("3c:5a:b4:10:20:30");
  const dot11::Frame response = dot11::make_probe_response(
      attacker_mac, phone_mac, "HarbourMall-Guest", 6, true);
  const std::vector<double> codec_ns = dot11_replay_ns(
      rep, tracer, {response, dot11::make_broadcast_probe_request(phone_mac)});
  const double attacker_frames = static_cast<double>(total.attacker_tx);
  const double dot11_s =
      1e-9 * (attacker_frames * codec_ns[0] +
              std::max(0.0, tx - attacker_frames) * codec_ns[1]);
  const double queue_ns =
      queue_replay_ns(tracer, static_cast<std::size_t>(peak));
  FanoutReplay fr;
  fr.radios = static_cast<std::size_t>(std::lround(ratio(rx, tx))) + 1;
  const double fanout_ns = fanout_replay_ns(
      tracer, runs[0].medium ? *runs[0].medium : world.config().medium, fr,
      response, codec_ns[0], queue_ns);
  lv.set("dot11.frames_coded", tx);
  lv.set("dot11.ns_per_roundtrip", 1e9 * ratio(dot11_s, tx));
  lv.set("queue.ns_per_event", queue_ns);

  // Loop split, each part measured on its own. The attacker's on_frame
  // spans include the Medium::transmit calls it makes, which serialize and
  // parse its frames: that codec time moves to dot11. dot11, queue and
  // medium/client are counts times their replayed unit costs.
  const double dot11_in_attacker =
      1e-9 * std::max(0.0, attacker_frames - deauths) * codec_ns[0];
  const double attacker_s = on_frame_s - dot11_in_attacker;
  const double queue_s = events * queue_ns * 1e-9;
  const double medium_client_s = rx * fanout_ns * 1e-9;
  lv.set("self.attacker_s", attacker_s);
  lv.set("self.dot11_s", dot11_s);
  lv.set("self.queue_s", queue_s);
  lv.set("self.medium_client_s", medium_client_s);
  // Model vs measured: the four parts against the untraced loop.
  const double model_s = attacker_s + dot11_s + queue_s + medium_client_s;
  lv.set("trace.model_gap_pct",
         100.0 * ratio(model_s - untraced_loop, untraced_loop));
  lv.report(rep);
}

void city_traced(Report& rep, Tracer& tracer, std::uint64_t seed) {
  LayerValues lv;
  sim::ShardedCityResult base;
  if (!city_call(rep, city_config(seed, 1), base)) return;
  const auto cfg = city_config(seed, kCityShards);
  std::vector<double> untraced_s;
  std::vector<double> untraced_busy_s;  // summed over shards
  std::vector<double> traced_s;
  std::uint64_t call_allocs = 0;
  sim::ShardedCityResult r;
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t a0 = perfbench::allocations();
    double t0 = now_s();
    if (!city_call(rep, cfg, r)) return;
    untraced_s.push_back(now_s() - t0);
    if (pass == 0) call_allocs = perfbench::allocations() - a0;
    double busy = 0.0;
    for (const auto& s : r.per_shard) busy += s.busy_s;
    untraced_busy_s.push_back(busy);
    rep.check(same_city(r, base), "4-shard call equals the 1-shard pass");

    Tracer discard("discard");
    Tracer& tr = pass == 1 ? tracer : discard;
    t0 = now_s();
    const int root = tr.open("run_sharded_city", -1);
    if (!city_call(rep, cfg, r)) return;
    const double l0 = t0 + r.phases.setup_s;
    tr.add("city.setup", root, t0, l0);
    const int loop = tr.add("city.loop", root, l0, l0 + r.wall_s);
    for (const auto& s : r.per_shard) tr.add("shard.busy", loop, l0, l0 + s.busy_s);
    tr.close(root);
    traced_s.push_back(now_s() - t0);
    rep.check(same_city(r, base), "traced 4-shard call equals the 1-shard pass");
  }
  const double untraced_wall = median(untraced_s);
  lv.set("trace.overhead_pct",
         100.0 * ratio(median(traced_s) - untraced_wall, untraced_wall));

  double busy_max = 0.0, busy_sum = 0.0, wait_sum = 0.0;
  for (const auto& s : r.per_shard) {
    busy_max = std::max(busy_max, s.busy_s);
    busy_sum += s.busy_s;
    wait_sum += std::max(0.0, r.wall_s - s.busy_s);
  }
  const auto nshards = static_cast<double>(r.per_shard.size());
  lv.set("shard.epochs", static_cast<double>(r.epochs));
  lv.set("shard.handoffs", static_cast<double>(r.handoffs));
  lv.set("shard.gap_silences", static_cast<double>(r.gap_silences));
  lv.set("shard.busy_s_max", busy_max);
  lv.set("shard.barrier_wait_share", ratio(wait_sum, nshards * r.wall_s));
  lv.set("shard.imbalance", ratio(busy_max, busy_sum / nshards));
  lv.set("self.shard_barrier_s", tracer.self_time_of("city.loop"));
  lv.set("queue.events", static_cast<double>(r.events_processed));
  lv.set("medium.transmissions", static_cast<double>(r.transmissions));
  lv.set("medium.deliveries", static_cast<double>(r.deliveries));
  lv.set("medium.deliveries_per_tx",
         ratio(static_cast<double>(r.deliveries),
               static_cast<double>(r.transmissions)));
  lv.set("medium.allocs_per_frame",
         ratio(static_cast<double>(call_allocs),
               static_cast<double>(r.deliveries)));

  // Replays over the city's broadcast mix: AP beacons every 102.4 ms and
  // phone probes every ~2 s, weighted by the configured AP share; the queue
  // at one shard's radio count; beacon fanout among one shard's radios on
  // one shard's district area, on the city's three channels, logging
  // every delivery, one replay per concurrently running shard.
  const auto ap_mac = *dot11::MacAddress::parse("02:00:00:00:00:01");
  const auto phone_mac = *dot11::MacAddress::parse("02:00:00:00:4e:21");
  const dot11::Frame beacon =
      dot11::make_beacon(ap_mac, "CityNet-0001", 6, true, 0);
  const std::vector<double> codec_ns = dot11_replay_ns(
      rep, tracer, {beacon, dot11::make_broadcast_probe_request(phone_mac)});
  const double beacon_w = cfg.ap_fraction / 0.1024;
  const double probe_w = (1.0 - cfg.ap_fraction) / 2.0;
  const double dot11_ns =
      ratio(beacon_w * codec_ns[0] + probe_w * codec_ns[1], beacon_w + probe_w);
  const double queue_ns = queue_replay_ns(
      tracer, static_cast<std::size_t>(cfg.radios / kCityShards));
  const double tx = static_cast<double>(r.transmissions);
  const double dot11_s = tx * dot11_ns * 1e-9;
  const double queue_s =
      static_cast<double>(r.events_processed) * queue_ns * 1e-9;
  lv.set("dot11.frames_coded", tx);
  lv.set("dot11.ns_per_roundtrip", dot11_ns);
  lv.set("queue.ns_per_event", queue_ns);
  const double shard_area_m2 = cfg.grid.district_m * cfg.grid.district_m *
                               cfg.grid.cols * cfg.grid.rows / kCityShards;
  FanoutReplay fr;
  fr.radios = static_cast<std::size_t>(cfg.radios / kCityShards);
  fr.radius_m = std::sqrt(shard_area_m2 / M_PI);
  fr.channels = 3;
  fr.log_deliveries = true;
  fr.threads = static_cast<int>(std::min<std::size_t>(
      workers(), static_cast<std::size_t>(kCityShards)));
  const double medium_s =
      static_cast<double>(r.deliveries) * 1e-9 *
      fanout_replay_ns(tracer, cfg.medium, fr, beacon, codec_ns[0], queue_ns);
  lv.set("self.dot11_s", dot11_s);
  lv.set("self.queue_s", queue_s);
  lv.set("self.medium_client_s", medium_s);
  // Model vs measured: the three parts against the shards' summed busy
  // time in the untraced calls.
  const double busy = median(untraced_busy_s);
  lv.set("trace.model_gap_pct",
         100.0 * ratio(dot11_s + queue_s + medium_s - busy, busy));
  lv.report(rep);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::string scratch = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else if (k == "--scratch") {
      a.scratch = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 &&
         (a.workload == "venue_mix" || a.workload == "lossy_campaign" ||
          a.workload == "city_district") &&
         a.seconds > 0.0;
}

void print_result(const Report& rep) {
  for (const Metric& m : rep.metrics) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // failed_ratio reads 0 on a correct build, so it travels in the result
  // line's attempted/failed fields rather than as a bounded metric.
  std::printf("metric %-32s %.6g ratio (%" PRIu64 " failed of %" PRIu64
              " attempted)\n",
              "failed_ratio",
              ratio(static_cast<double>(rep.failed),
                    static_cast<double>(rep.attempted)),
              rep.failed, rep.attempted);
  std::string json = "{\"correct\": ";
  json += rep.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  if (!parse_args(argc, argv, args) || args.trace != kTracedBuild) {
    std::fprintf(stderr,
                 "usage: perfbench --workload venue_mix|lossy_campaign|"
                 "city_district --seed N --seconds S --trace 0 "
                 "[--scratch DIR]\n"
                 "       perfbench_traced ... --trace 1 [--spans FILE]\n");
    return 2;
  }
#if defined(__AVX2__)
  const char* avx2_build = "yes";
#else
  const char* avx2_build = "no";
#endif
  __builtin_cpu_init();
  std::printf("host: nproc=%u workers=%zu build=%s compiler=\"GCC %s\" "
              "avx2_cpu=%s avx2_build=%s\n",
              std::thread::hardware_concurrency(), workers(),
              PERFBENCH_BUILD_TYPE, __VERSION__,
              __builtin_cpu_supports("avx2") ? "yes" : "no", avx2_build);
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: refusing to measure a non-optimised "
                       "build (%s)\n", PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  std::printf("workload: %s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);

  Report rep;
  if (!args.trace) {
    if (args.workload == "city_district") {
      city_e2e(rep, args.seed, args.seconds);
    } else {
      venue_e2e(rep, args.seed, args.seconds,
                args.workload == "lossy_campaign", args.scratch);
    }
  } else {
    Tracer tracer(args.workload + "-" + std::to_string(args.seed) + "-" +
                  std::to_string(::getpid()));
    if (args.workload == "city_district") {
      city_traced(rep, tracer, args.seed);
    } else {
      venue_traced(rep, tracer, args.seed,
                   args.workload == "lossy_campaign", args.scratch);
    }
    if (!args.spans_path.empty()) {
      rep.check(tracer.write(args.spans_path), "spans written");
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  args.spans_path.c_str());
    }
  }
  print_result(rep);
  return rep.failed == 0 ? 0 : 1;
}
