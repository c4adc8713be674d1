#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "support/hash.h"
#include "support/histogram.h"
#include "support/rng.h"
#include "support/sim_time.h"
#include "support/table.h"

namespace cityhunter::support {
namespace {

// --- SimTime ---

TEST(SimTime, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::milliseconds(1).us(), 1000);
  EXPECT_EQ(SimTime::seconds(1.0).us(), 1000000);
  EXPECT_EQ(SimTime::minutes(1.0).us(), 60000000);
  EXPECT_EQ(SimTime::hours(1.0).us(), 3600000000LL);
}

TEST(SimTime, Arithmetic) {
  const auto t = SimTime::seconds(2.0) + SimTime::milliseconds(500);
  EXPECT_DOUBLE_EQ(t.sec(), 2.5);
  EXPECT_DOUBLE_EQ((t - SimTime::seconds(1.0)).sec(), 1.5);
  EXPECT_DOUBLE_EQ((SimTime::seconds(10.0) * 0.5).sec(), 5.0);
}

TEST(SimTime, ComparisonIsTotal) {
  EXPECT_LT(SimTime::zero(), SimTime::microseconds(1));
  EXPECT_LE(SimTime::seconds(1.0), SimTime::milliseconds(1000));
  EXPECT_EQ(SimTime::seconds(1.0), SimTime::milliseconds(1000));
  EXPECT_GT(SimTime::max(), SimTime::hours(10000));
}

TEST(SimTime, HumanReadableString) {
  EXPECT_EQ(SimTime::milliseconds(250).str(), "250.000ms");
  EXPECT_EQ(SimTime::seconds(5.0).str(), "5.0s");
  EXPECT_EQ(SimTime::minutes(2.5).str(), "2m30.0s");
  EXPECT_EQ(SimTime::hours(3.25).str(), "3h15m");
}

// --- Mt19937_64 against the standard engine ---

static_assert(sizeof(Rng) <= 2512, "an Rng is one engine's state and no more");

/// Draw counts past the first block's seeding frontier (156), the first
/// block (312) and the second (624).
constexpr int kOracleDraws = 700;

TEST(RngEngine, MatchesStdMt19937OutputForOutput) {
  std::vector<std::uint64_t> seeds = {0, ~std::uint64_t{0}, 1, 5489,
                                      std::uint64_t{1} << 63};
  std::mt19937_64 seeder(20240601);
  while (seeds.size() < 305) seeds.push_back(seeder());
  for (std::size_t si = 0; si < seeds.size(); ++si) {
    const std::uint64_t seed = seeds[si];
    Mt19937_64 engine(seed);
    std::mt19937_64 oracle(seed);
    // Each seed peeks on its own cadence, so peeks land at every offset of
    // the lazily seeded prefix and of later blocks.
    const int peek_every = 1 + static_cast<int>(si % 7);
    for (int k = 0; k < kOracleDraws; ++k) {
      if (k % peek_every == 0) {
        std::mt19937_64 ahead = oracle;
        ASSERT_EQ(engine.peek(), ahead()) << "seed " << seed << " peek " << k;
      }
      ASSERT_EQ(engine(), oracle()) << "seed " << seed << " draw " << k;
    }
  }
}

TEST(RngEngine, CopiesTakenMidBlockContinueIdentically) {
  for (const std::uint64_t seed : {std::uint64_t{0}, ~std::uint64_t{0},
                                   std::uint64_t{42}}) {
    for (const int at : {0, 1, 2, 100, 155, 156, 157, 311, 312, 313, 623,
                         624, 625}) {
      Mt19937_64 engine(seed);
      std::mt19937_64 oracle(seed);
      for (int k = 0; k < at; ++k) {
        engine();
        oracle();
      }
      Mt19937_64 copy = engine;
      std::mt19937_64 oracle_copy = oracle;
      // The original runs on first: a copy shares no state with it.
      for (int k = 0; k < 400; ++k) ASSERT_EQ(engine(), oracle());
      for (int k = 0; k < kOracleDraws; ++k) {
        ASSERT_EQ(copy(), oracle_copy())
            << "seed " << seed << " copied at " << at << " draw " << k;
      }
    }
  }
}

TEST(RngEngine, ForksBetweenDrawsLeaveTheStreamAlone) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng forked(static_cast<std::uint64_t>(seed));
    Rng plain(static_cast<std::uint64_t>(seed));
    for (int k = 0; k < kOracleDraws; ++k) {
      if (k % 13 == seed % 13) {
        // A fork reads the parent's next output: the same child as a fork
        // taken from a copy, whether or not that word is seeded yet.
        Rng child = forked.fork("child");
        Rng copy = forked;
        Rng twin = copy.fork("child");
        ASSERT_EQ(child.engine()(), twin.engine()()) << k;
      }
      ASSERT_EQ(forked.engine()(), plain.engine()()) << "seed " << seed
                                                     << " draw " << k;
    }
  }
}

TEST(RngEngine, PinnedFirstOutputs) {
  // Recorded with the std::mt19937_64-backed Rng this engine replaced.
  Rng fork = Rng(77).fork("mobility");
  for (const std::uint64_t want :
       {0x6bf49196e1b37a35ULL, 0x47c8339ad9dcbfbdULL, 0x0be391c6bfdaacdeULL,
        0x29e1a3be6004b05dULL}) {
    EXPECT_EQ(fork.engine()(), want);
  }
  Rng draws = Rng(77).fork("mobility");
  EXPECT_EQ(draws.uniform(), 0.42170057233461294);
  EXPECT_EQ(draws.normal(0.0, 1.0), -0.36165283160644529);
  EXPECT_EQ(draws.uniform_int(0, 1000000), 521815);
}

// --- Keyed draws ---

TEST(KeyedDraw, PinnedValues) {
  // Recorded from the fault model's own helpers before they moved here, so
  // no fault draw and no city draw can move unnoticed.
  EXPECT_EQ(keyed(0, 0), 0xa706dd2f4d197e6fULL);
  EXPECT_EQ(keyed(1, 2), 0xe06dd043328bd285ULL);
  EXPECT_EQ(keyed(0x0123456789abcdefULL, 42), 0xfd42d2b00c1b17e4ULL);
  EXPECT_EQ(keyed(2026, 7), 0x1d90cb5e7ff50f21ULL);

  EXPECT_EQ(unit(0), 0.0);
  EXPECT_EQ(unit(~std::uint64_t{0}), 1.0 - 0x1.0p-53);
  EXPECT_EQ(unit(0x8000000000000000ULL), 0.5);
  EXPECT_EQ(unit(0xe06dd043328bd285ULL), 0.87667562141955035);

  EXPECT_EQ(below(0, 3), 0u);
  EXPECT_EQ(below(~std::uint64_t{0}, 1), 0u);
  EXPECT_EQ(below(~std::uint64_t{0}, 3), 2u);
  EXPECT_EQ(below(~std::uint64_t{0}, 102400), 102399u);
  EXPECT_EQ(below(0x8000000000000000ULL, 3), 1u);
  EXPECT_EQ(below(0x8000000000000000ULL, 1000000), 500000u);
  EXPECT_EQ(below(0xe06dd043328bd285ULL, 3), 2u);
  EXPECT_EQ(below(0xe06dd043328bd285ULL, 102400), 89771u);
  EXPECT_EQ(below(0xe06dd043328bd285ULL, 1000000), 876675u);
}

TEST(Rng, ConstForkIsRaceFree) {
  // peek() only reads: threads forking one const parent get the serial
  // forks. Parents sit unseeded, part-seeded and past the first block.
  std::vector<Rng> parents(3, Rng(2024));
  for (int k = 0; k < 5; ++k) parents[1].engine()();
  for (int k = 0; k < 400; ++k) parents[2].engine()();
  constexpr int kForks = 1000;
  const auto fork_all = [&](std::vector<std::uint64_t>& out) {
    for (const Rng& parent : parents) {
      for (int i = 0; i < kForks; ++i) {
        out.push_back(parent.fork(std::to_string(i)).engine()());
      }
    }
  };
  std::vector<std::uint64_t> serial;
  fork_all(serial);
  std::vector<std::vector<std::uint64_t>> per_thread(4);
  std::vector<std::thread> threads;
  for (auto& out : per_thread) threads.emplace_back(fork_all, std::ref(out));
  for (auto& t : threads) t.join();
  for (const auto& out : per_thread) EXPECT_EQ(out, serial);
}

// --- Rng determinism ---

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1000000) == b.uniform_int(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsStableAndIndependent) {
  Rng parent(77);
  Rng c1 = parent.fork("mobility");
  Rng c2 = Rng(77).fork("mobility");
  // Same parent seed + same label => same child stream.
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
  }
  // Different labels => different streams.
  Rng c3 = Rng(77).fork("world");
  Rng c4 = Rng(77).fork("mobility");
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (std::abs(c3.uniform() - c4.uniform()) < 1e-12) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ZipfRankOneIsMostProbable) {
  const ZipfTable zipf(10, 1.0);
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t r = zipf.sample(rng);
    ASSERT_LT(r, 10u);
    ++counts[r];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[4]);
  EXPECT_GT(counts[4], 0);
}

TEST(Rng, ZipfSingleElement) {
  Rng rng(9);
  EXPECT_EQ(ZipfTable(1, 1.0).sample(rng), 0u);
  EXPECT_THROW(ZipfTable(0, 1.0).sample(rng), std::invalid_argument);
  EXPECT_THROW(ZipfTable().sample(rng), std::invalid_argument);
}

/// The inverse-CDF scan the table replaced: both loops over n with a pow
/// per term, on every draw. Returns a 1-based rank.
int zipf_linear_scan(Rng& rng, int n, double s) {
  if (n == 1) return 1;
  double norm = 0.0;
  for (int k = 1; k <= n; ++k) norm += 1.0 / std::pow(k, s);
  const double u = rng.uniform(0.0, norm);
  double acc = 0.0;
  for (int k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(k, s);
    if (u <= acc) return k;
  }
  return n;
}

TEST(Rng, ZipfTableMatchesLinearScan) {
  // Same ranks from the same draws, and both streams end in step.
  for (const int n : {1, 2, 3, 10, 57, 600, 3000}) {
    for (const double s : {0.0, 0.5, 0.75, 1.0, 1.7}) {
      const ZipfTable zipf(static_cast<std::size_t>(n), s);
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng table_rng(seed), scan_rng(seed);
        for (int i = 0; i < 200; ++i) {
          ASSERT_EQ(zipf.sample(table_rng) + 1,
                    static_cast<std::size_t>(zipf_linear_scan(scan_rng, n, s)))
              << "n " << n << " s " << s << " seed " << seed << " draw " << i;
        }
        EXPECT_EQ(table_rng.engine()(), scan_rng.engine()());
      }
    }
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(11);
  std::vector<double> w{1.0, 0.0, 9.0};
  int c0 = 0, c2 = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto idx = rng.weighted_index(w);
    ASSERT_NE(idx, 1u);  // zero weight never picked
    if (idx == 0) ++c0;
    if (idx == 2) ++c2;
  }
  EXPECT_NEAR(static_cast<double>(c2) / (c0 + c2), 0.9, 0.03);
}

TEST(Rng, WeightedIndexRejectsEmptyAndZero) {
  Rng rng(1);
  EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(13);
  std::vector<std::size_t> idx;
  for (int trial = 0; trial < 50; ++trial) {
    rng.sample_indices(20, 7, idx);
    ASSERT_EQ(idx.size(), 7u);
    std::sort(idx.begin(), idx.end());
    EXPECT_TRUE(std::adjacent_find(idx.begin(), idx.end()) == idx.end());
    EXPECT_LT(idx.back(), 20u);
  }
  // k > n clamps to n.
  rng.sample_indices(3, 10, idx);
  EXPECT_EQ(idx.size(), 3u);
}

TEST(Rng, PoissonMeanRoughlyCorrect) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += rng.poisson(4.0);
  EXPECT_NEAR(sum / 10000.0, 4.0, 0.1);
}

// --- Histogram ---

TEST(Histogram, BucketsAndStats) {
  Histogram h(10.0);
  for (const double v : {5.0, 15.0, 15.5, 25.0, 25.0, 25.0}) h.add(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
  EXPECT_NEAR(h.mean(), 18.42, 0.01);
  EXPECT_DOUBLE_EQ(h.fraction_in_bucket(0.0), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(h.fraction_in_bucket(10.0), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(h.fraction_in_bucket(20.0), 3.0 / 6.0);
  EXPECT_DOUBLE_EQ(h.fraction_in_bucket(90.0), 0.0);
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].first, 0.0);
  EXPECT_EQ(buckets[2].second, 3u);
}

TEST(Histogram, RejectsNonPositiveWidth) {
  EXPECT_THROW(Histogram(0.0), std::invalid_argument);
  EXPECT_THROW(Histogram(-1.0), std::invalid_argument);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h(1.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.ascii(), "(empty)\n");
}

TEST(Summary, RunningStats) {
  Summary s;
  for (const double v : {2.0, 4.0, 6.0, 8.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.stddev(), 2.582, 0.001);
}

// --- TextTable ---

TEST(TextTable, AlignsColumnsAndPadsMissingCells) {
  TextTable t({"a", "long-header"});
  t.add_row({"x"});
  t.add_row({"longer-cell", "y"});
  const auto s = t.str();
  EXPECT_NE(s.find("a           | long-header"), std::string::npos);
  EXPECT_NE(s.find("longer-cell | y"), std::string::npos);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::pct(0.159), "15.9%");
  EXPECT_EQ(TextTable::pct(0.0366, 2), "3.66%");
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(1234LL), "1234");
}

}  // namespace
}  // namespace cityhunter::support
