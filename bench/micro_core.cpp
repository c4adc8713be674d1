// Micro-benchmarks: attacker data-structure hot paths (google-benchmark).
// The selection loops report allocs_per_op so allocation regressions
// on the attacker side are visible next to the time/op numbers.
#include "alloc_counter.h"

#include <benchmark/benchmark.h>

#include "core/buffers.h"
#include "core/ssid_db.h"
#include "support/rng.h"

using namespace cityhunter;

namespace {

core::SsidDatabase make_db(int n) {
  core::SsidDatabase db;
  for (int i = 0; i < n; ++i) {
    db.add("SSID-" + std::to_string(i), static_cast<double>(n - i),
           core::SsidSource::kWiglePopular, support::SimTime::zero());
  }
  return db;
}

void BM_SsidDbAdd(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::SsidDatabase db;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      db.add("SSID-" + std::to_string(i), static_cast<double>(i),
             core::SsidSource::kDirectProbe, support::SimTime::zero());
    }
    benchmark::DoNotOptimize(db);
  }
}
BENCHMARK(BM_SsidDbAdd)->Arg(100)->Arg(500);

void BM_SsidDbByWeight(benchmark::State& state) {
  auto db = make_db(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto v = db.by_weight();
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SsidDbByWeight)->Arg(100)->Arg(500)->Arg(2000);

void BM_BufferSelect(benchmark::State& state) {
  auto db = make_db(static_cast<int>(state.range(0)));
  support::Rng rng(3);
  // Mark a handful as fresh so both buffers engage.
  for (int i = 0; i < 30; ++i) {
    db.record_hit("SSID-" + std::to_string(i * 7),
                  1.0, support::SimTime::seconds(i));
  }
  core::BufferSelector selector(core::BufferSelectorConfig{}, rng.fork("s"));
  const auto by_weight = db.by_weight();
  const auto by_fresh = db.by_freshness();
  std::unordered_set<std::string> sent;
  for (int i = 0; i < 60; ++i) sent.insert("SSID-" + std::to_string(i));
  const auto a0 = bench::alloc_count();
  for (auto _ : state) {
    auto choices = selector.select(by_weight, by_fresh, &sent);
    benchmark::DoNotOptimize(choices);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 40);
  state.counters["allocs_per_op"] =
      static_cast<double>(bench::alloc_count() - a0) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_BufferSelect)->Arg(300)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
