// Micro-benchmarks: 802.11 codec throughput (google-benchmark).
//
// Every frame in the simulator crosses serialize() + parse(), so codec cost
// bounds simulation throughput. The legacy allocating API is benchmarked
// next to the buffer-reusing serialize_into/parse_into hot-path variants
// and decode_into, the FCS-less decode the medium runs on undamaged bytes;
// each benchmark also reports heap allocations per operation
// (bench/alloc_counter.h) — the _into variants must sit at 0 once warm.
#include "alloc_counter.h"

#include <benchmark/benchmark.h>

#include "dot11/crc32.h"
#include "dot11/serialize.h"
#include "support/rng.h"

using namespace cityhunter;

namespace {

void report_allocs_per_op(benchmark::State& state, std::uint64_t before) {
  state.counters["allocs_per_op"] =
      static_cast<double>(bench::alloc_count() - before) /
      static_cast<double>(state.iterations());
}

dot11::Frame sample_probe_response() {
  support::Rng rng(7);
  const auto bssid = dot11::MacAddress::random_local(rng);
  const auto client = dot11::MacAddress::random_local(rng);
  return dot11::make_probe_response(bssid, client, "7-Eleven Free Wifi", 6,
                                    /*open=*/true, 42);
}

void BM_SerializeProbeResponse(benchmark::State& state) {
  const auto frame = sample_probe_response();
  const auto a0 = bench::alloc_count();
  for (auto _ : state) {
    auto bytes = dot11::serialize(frame);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  report_allocs_per_op(state, a0);
}
BENCHMARK(BM_SerializeProbeResponse);

void BM_SerializeIntoProbeResponse(benchmark::State& state) {
  const auto frame = sample_probe_response();
  std::vector<std::uint8_t> scratch;
  dot11::serialize_into(frame, scratch);  // warm the buffer
  const auto a0 = bench::alloc_count();
  for (auto _ : state) {
    auto n = dot11::serialize_into(frame, scratch);
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  report_allocs_per_op(state, a0);
}
BENCHMARK(BM_SerializeIntoProbeResponse);

void BM_ParseProbeResponse(benchmark::State& state) {
  const auto bytes = dot11::serialize(sample_probe_response());
  const auto a0 = bench::alloc_count();
  for (auto _ : state) {
    auto frame = dot11::parse(bytes);
    benchmark::DoNotOptimize(frame);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  report_allocs_per_op(state, a0);
}
BENCHMARK(BM_ParseProbeResponse);

void BM_ParseIntoProbeResponse(benchmark::State& state) {
  const auto bytes = dot11::serialize(sample_probe_response());
  dot11::Frame slot;
  dot11::parse_into(bytes, slot);  // warm the slot's IE storage
  const auto a0 = bench::alloc_count();
  for (auto _ : state) {
    auto ok = dot11::parse_into(bytes, slot);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(&slot);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  report_allocs_per_op(state, a0);
}
BENCHMARK(BM_ParseIntoProbeResponse);

// What Medium::transmit runs on bytes the fault model left alone: the
// decode of BM_ParseIntoProbeResponse without its FCS check.
void BM_DecodeIntoProbeResponse(benchmark::State& state) {
  const auto bytes = dot11::serialize(sample_probe_response());
  dot11::Frame slot;
  dot11::decode_into(bytes, slot);  // warm the slot's IE storage
  const auto a0 = bench::alloc_count();
  for (auto _ : state) {
    auto ok = dot11::decode_into(bytes, slot);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(&slot);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  report_allocs_per_op(state, a0);
}
BENCHMARK(BM_DecodeIntoProbeResponse);

void BM_RoundTripBeacon(benchmark::State& state) {
  support::Rng rng(9);
  const auto frame = dot11::make_beacon(dot11::MacAddress::random_local(rng),
                                        "#HKAirport Free WiFi", 11,
                                        /*open=*/true, 123456, 7);
  const auto a0 = bench::alloc_count();
  for (auto _ : state) {
    auto parsed = dot11::parse(dot11::serialize(frame));
    benchmark::DoNotOptimize(parsed);
  }
  report_allocs_per_op(state, a0);
}
BENCHMARK(BM_RoundTripBeacon);

void BM_RoundTripBeaconInto(benchmark::State& state) {
  support::Rng rng(9);
  const auto frame = dot11::make_beacon(dot11::MacAddress::random_local(rng),
                                        "#HKAirport Free WiFi", 11,
                                        /*open=*/true, 123456, 7);
  std::vector<std::uint8_t> scratch;
  dot11::Frame slot;
  dot11::serialize_into(frame, scratch);
  dot11::parse_into(scratch, slot);
  const auto a0 = bench::alloc_count();
  for (auto _ : state) {
    dot11::serialize_into(frame, scratch);
    auto ok = dot11::parse_into(scratch, slot);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(&slot);
  }
  report_allocs_per_op(state, a0);
}
BENCHMARK(BM_RoundTripBeaconInto);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    auto c = dot11::crc32(data);
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(256)->Arg(1024)->Arg(1500);

}  // namespace

BENCHMARK_MAIN();
