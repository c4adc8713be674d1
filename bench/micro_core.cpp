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

// A full build: the view starts empty every time.
void BM_SsidDbByWeight(benchmark::State& state) {
  auto db = make_db(static_cast<int>(state.range(0)));
  std::vector<core::SsidId> v;
  for (auto _ : state) {
    v.clear();
    db.by_weight(v);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SsidDbByWeight)->Arg(100)->Arg(500)->Arg(2000);

// What the attacker pays between two trains in a venue with direct probers:
// one record's weight bumped (a hit, found by its SSID), then the kept view
// brought up to date. Records are bumped in turn, so each one moves a few
// places up the table.
void BM_SsidDbByWeightAfterBump(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto db = make_db(n);
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back("SSID-" + std::to_string(i));
  std::vector<core::SsidId> v;
  db.by_weight(v);
  std::size_t next = 0;
  for (auto _ : state) {
    db.record_hit(names[next], 8.0, support::SimTime::zero());
    next = next + 1 == names.size() ? 0 : next + 1;
    db.by_weight(v);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SsidDbByWeightAfterBump)->Arg(100)->Arg(500)->Arg(2000);

void BM_BufferSelect(benchmark::State& state) {
  auto db = make_db(static_cast<int>(state.range(0)));
  support::Rng rng(3);
  // Mark a handful as fresh so both buffers engage.
  for (int i = 0; i < 30; ++i) {
    db.record_hit("SSID-" + std::to_string(i * 7),
                  1.0, support::SimTime::seconds(i));
  }
  core::BufferSelector selector(core::BufferSelectorConfig{}, rng.fork("s"));
  std::vector<core::SsidId> by_weight;
  std::vector<core::SsidId> by_fresh;
  db.by_weight(by_weight);
  db.by_freshness(by_fresh);
  // The first 60 SSIDs were already sent to this client.
  std::vector<std::uint8_t> sent(db.size(), 0);
  for (int i = 0; i < 60; ++i) {
    sent[*db.find_id("SSID-" + std::to_string(i))] = 1;
  }
  std::vector<core::SsidChoice> choices;
  selector.select(db.records(), by_weight, by_fresh, &sent, choices);  // warm
  const auto a0 = bench::alloc_count();
  for (auto _ : state) {
    selector.select(db.records(), by_weight, by_fresh, &sent, choices);
    benchmark::DoNotOptimize(choices.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 40);
  state.counters["allocs_per_op"] =
      static_cast<double>(bench::alloc_count() - a0) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_BufferSelect)->Arg(300)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
