// Continuous sharded city: deliver throughput vs shard count on the
// multi-district world (sim/shard). Every row simulates the SAME city —
// identical geometry, entity streams and frames — split across 1/2/4/8
// spatial shards, each owning its districts' slice of the Medium behind a
// conservative time-sync barrier with deterministic cross-shard handoffs.
//
// The identity column is the whole point: the order-independent delivery
// digest (obs/delivery_log.h) must match the single-Medium baseline bit for
// bit at every shard count and worker count, or the speedup numbers are
// measuring a different simulation. Mismatches fail the binary.
//
// The sweep holds radio density constant by growing district rows with the
// population, so per-fanout cost stays flat and the shard columns carry
// equal load. On a >= 4-thread host the 100k-radio / 4-shard row is the
// ISSUE 10 acceptance number (>= 3x the single-Medium throughput); single-
// core hosts still verify identity and report honest (parallelism-free)
// walls.
//
// Usage: fig_sharded_city [--smoke]
//   --smoke: 4k radios, 0.5 s — the ctest -L perf equality check.
#include "bench_common.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "sim/shard.h"

namespace {

using cityhunter::sim::ShardedCityConfig;
using cityhunter::sim::ShardedCityResult;
using cityhunter::sim::run_sharded_city;

int g_failures = 0;

/// The largest share of the run's wall any one shard spent waiting at the
/// barrier (ShardStats::wait_s): how far the slowest shard held the rest up.
double max_wait_share(const ShardedCityResult& r) {
  double wait = 0.0;
  for (const auto& s : r.per_shard) wait = std::max(wait, s.wait_s);
  return r.wall_s > 0.0 ? wait / r.wall_s : 0.0;
}

bool check_identical(const ShardedCityResult& baseline,
                     const ShardedCityResult& r) {
  const bool ok = r.transmissions == baseline.transmissions &&
                  r.deliveries == baseline.deliveries &&
                  r.gap_silences == baseline.gap_silences &&
                  r.delivery_digest == baseline.delivery_digest;
  if (!ok) {
    std::printf(
        "  MISMATCH at %d shards / %zu workers: deliveries %llu vs %llu, "
        "digest %016llx vs %016llx\n",
        r.shards, r.workers, static_cast<unsigned long long>(r.deliveries),
        static_cast<unsigned long long>(baseline.deliveries),
        static_cast<unsigned long long>(r.delivery_digest),
        static_cast<unsigned long long>(baseline.delivery_digest));
    ++g_failures;
  }
  return ok;
}

// Smoke geometry: a compact city (60 m districts, 70 m gaps, low TX powers
// so the gaps stay RF-safe) over a long horizon, so walkers actually cross
// shard boundaries and the equality check covers the handoff machinery —
// at 0.5 s on the full-size grid no phone gets near a midline and the
// shard populations would be trivially disjoint.
ShardedCityConfig smoke_config() {
  ShardedCityConfig cfg;
  cfg.radios = 2000;
  cfg.ap_tx_dbm = 5.0;
  cfg.phone_tx_dbm = 0.0;
  cfg.grid.district_m = 60.0;
  cfg.grid.gap_m = 70.0;
  cfg.duration = cityhunter::support::SimTime::seconds(120.0);
  return cfg;
}

void run_sweep(ShardedCityConfig cfg, const char* note) {
  const int radios = cfg.radios;
  const double sim_s = cfg.duration.sec();
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf(
      "\n  %d radios, 8x%d districts%s, %.2f s horizon (%u hardware "
      "threads)\n"
      "  shards | workers | wall     | throughput | speedup | max wait | "
      "handoffs | identical\n",
      radios, cfg.grid.rows, note, sim_s, hw);

  // Warm pass at 1 shard: page in the arenas, ramp the clocks.
  auto warm = cfg;
  warm.shards = 1;
  warm.duration = cityhunter::support::SimTime::seconds(sim_s / 4.0);
  (void)run_sharded_city(warm);

  ShardedCityResult baseline;
  for (const int shards : {1, 2, 4, 8}) {
    auto row_cfg = cfg;
    row_cfg.shards = shards;
    // Best-of-2: the barrier loop is jitter-sensitive at short horizons.
    ShardedCityResult r = run_sharded_city(row_cfg);
    ShardedCityResult again = run_sharded_city(row_cfg);
    if (again.wall_s < r.wall_s) r = std::move(again);
    const bool identical = shards == 1 || check_identical(baseline, r);
    std::printf(
        "  %6d | %7zu | %7.3fs | %8.3gM/s | %6.2fx | %7.1f%% | %8llu | %s\n",
        shards, r.workers, r.wall_s, r.deliveries_per_s / 1e6,
        shards == 1 ? 1.0 : (r.wall_s > 0.0 ? baseline.wall_s / r.wall_s : 0.0),
        100.0 * max_wait_share(r), static_cast<unsigned long long>(r.handoffs),
        identical ? "yes" : "NO");
    if (shards == 1) baseline = std::move(r);
  }

  // Worker-count invariance at a fixed shard count: same partition, fewer
  // threads — the deliveries (and even per-shard event counts) must not
  // notice who executed each epoch.
  auto pinned = cfg;
  pinned.shards = 4;
  pinned.workers = 2;
  const ShardedCityResult two_workers = run_sharded_city(pinned);
  check_identical(baseline, two_workers);
  std::printf("  %6d | %7zu | %7.3fs | %8.3gM/s | %6s | %7.1f%% | %8llu | %s\n",
              pinned.shards, two_workers.workers, two_workers.wall_s,
              two_workers.deliveries_per_s / 1e6, "-",
              100.0 * max_wait_share(two_workers),
              static_cast<unsigned long long>(two_workers.handoffs),
              two_workers.delivery_digest == baseline.delivery_digest
                  ? "yes"
                  : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  cityhunter::bench::print_header(
      "sharded city: deliver throughput vs shard count (deterministic "
      "handoff)",
      "ROADMAP north star: city-sized populations, as fast as the hardware "
      "allows");
  if (smoke) {
    run_sweep(smoke_config(), " (compact, handoff-heavy)");
  } else {
    const auto city = [](int radios, int rows, double sim_s) {
      ShardedCityConfig cfg;
      cfg.radios = radios;
      cfg.grid.rows = rows;
      cfg.duration = cityhunter::support::SimTime::seconds(sim_s);
      return cfg;
    };
    run_sweep(smoke_config(), " (compact, handoff-heavy)");
    run_sweep(city(100000, 2, 0.5), "");
    run_sweep(city(300000, 6, 0.2), "");
    run_sweep(city(1000000, 20, 0.05), "");
  }
  if (g_failures != 0) {
    std::printf("FAILED: %d shard-count identity mismatches\n", g_failures);
    return 1;
  }
  std::printf("\nOK: deliveries byte-identical at every shard/worker count\n");
  return 0;
}
