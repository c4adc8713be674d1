// City-scale delivery throughput: the headline scenario for the grid
// pipeline. A 2 km urban district with 5k–20k radios (30% static APs
// beaconing at 9.77 Hz, 70% phones scanning every ~2 s while walking)
// drives the Medium fanout at each size. At the smallest size the
// legacy-scan oracle (no grid, exact math, O(n) per frame) runs the same
// district too: both must produce identical transmission/delivery counts,
// and scan/grid is what the spatial culling buys.
//
// Usage: fig_city_scale [--smoke]
//   --smoke: one small size (2k radios, 2 s), used by ctest -L perf.
#include "bench_common.h"
#include "city_scale.h"

#include <cstring>

namespace {

using cityhunter::bench::CityScaleParams;
using cityhunter::bench::CityScaleResult;
using cityhunter::bench::run_city_scale;
using cityhunter::medium::Medium;

int g_failures = 0;

void check_equal(const char* what, std::uint64_t a, std::uint64_t b) {
  if (a != b) {
    std::printf("  MISMATCH %s: %llu vs %llu\n", what,
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
    ++g_failures;
  }
}

void run_size(int radios, double sim_s, bool with_scan) {
  CityScaleParams params;
  params.radios = radios;
  params.duration = cityhunter::support::SimTime::seconds(sim_s);

  const CityScaleResult grid = run_city_scale(params, Medium::Config{});
  const double hit_rate =
      grid.cache_hits + grid.cache_misses > 0
          ? static_cast<double>(grid.cache_hits) /
                static_cast<double>(grid.cache_hits + grid.cache_misses)
          : 0.0;
  char scan_col[16] = "        -";
  char speedup_col[16] = "      -";
  if (with_scan) {
    Medium::Config scan_cfg;
    scan_cfg.spatial_grid = false;
    const CityScaleResult scan = run_city_scale(params, scan_cfg);
    check_equal("transmissions", grid.transmissions, scan.transmissions);
    check_equal("deliveries", grid.deliveries, scan.deliveries);
    std::snprintf(scan_col, sizeof scan_col, "%8.3fs", scan.wall_s);
    std::snprintf(speedup_col, sizeof speedup_col, "%6.2fx",
                  grid.wall_s > 0.0 ? scan.wall_s / grid.wall_s : 0.0);
  }
  std::printf("  %6d | %9.2fM | %s | %8.3fs | %s | %9.3gM/s | %5.1f%%\n",
              radios, static_cast<double>(grid.deliveries) / 1e6, scan_col,
              grid.wall_s, speedup_col, grid.deliveries_per_s / 1e6,
              hit_rate * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  cityhunter::bench::print_header(
      "city-scale deliver throughput (grid pipeline vs legacy scan)",
      "ROADMAP north star: city-sized populations, as fast as the hardware "
      "allows");
  std::printf(
      "  radios | delivered | scan      | grid      | speedup | throughput "
      "| cache hit\n");
  if (smoke) {
    run_size(2000, 2.0, /*with_scan=*/true);
  } else {
    run_size(5000, 5.0, /*with_scan=*/true);
    run_size(10000, 5.0, /*with_scan=*/false);
    run_size(20000, 3.0, /*with_scan=*/false);
  }
  if (g_failures != 0) {
    std::printf("FAILED: %d pipeline mismatches\n", g_failures);
    return 1;
  }
  std::printf("OK: grid pipeline and legacy scan agree\n");
  return 0;
}
