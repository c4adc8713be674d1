#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/parallel.h"
#include "support/thread_pool.h"

namespace cityhunter {
namespace {

using support::ThreadPool;

// --- ThreadPool ---

TEST(ThreadPool, ReturnsFutureValues) {
  ThreadPool pool(2);
  auto a = pool.submit([] { return 21 * 2; });
  auto b = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, TasksMaySubmitFollowUps) {
  // A task enqueuing more work must not deadlock (workers never hold the
  // queue lock while running a task).
  ThreadPool pool(1);
  std::atomic<int> count{0};
  auto outer = pool.submit([&] {
    ++count;
    return pool.submit([&count] { ++count; });
  });
  outer.get().get();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, QueuedTasksFinishBeforeDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { ++count; });
    }
  }  // destructor drains the queue
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DefaultWorkersHonoursEnvOverride) {
  ::setenv("CITYHUNTER_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_workers(), 3u);
  ::setenv("CITYHUNTER_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_workers(), 1u);
  ::unsetenv("CITYHUNTER_THREADS");
  EXPECT_GE(ThreadPool::default_workers(), 1u);
}

// --- run_campaigns ---

sim::ScenarioConfig small_scenario() {
  sim::ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.aps.residential_ap_count = 800;
  cfg.aps.small_venue_count = 400;
  cfg.aps.enterprise_ap_count = 150;
  cfg.photos.photo_count = 8000;
  return cfg;
}

/// Eight runs cycling through every attacker kind with varied seeds and
/// venues; two of them also sample a series.
std::vector<sim::RunConfig> mixed_runs() {
  const sim::AttackerKind kinds[] = {
      sim::AttackerKind::kKarma, sim::AttackerKind::kMana,
      sim::AttackerKind::kPrelim, sim::AttackerKind::kCityHunter};
  std::vector<sim::RunConfig> runs;
  for (int i = 0; i < 8; ++i) {
    sim::RunConfig run;
    run.kind = kinds[i % 4];
    run.venue = (i % 2 == 0) ? mobility::canteen_venue()
                             : mobility::subway_passage_venue();
    run.slot.expected_clients = 80 + 20 * i;
    run.duration = support::SimTime::minutes(5);
    run.run_seed = static_cast<std::uint64_t>(i + 1);
    if (i % 3 == 0) run.sample_every = support::SimTime::minutes(1);
    runs.push_back(std::move(run));
  }
  return runs;
}

void expect_identical(const sim::RunOutput& a, const sim::RunOutput& b) {
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.window_rates, b.window_rates);
  EXPECT_EQ(a.final_pb_size, b.final_pb_size);
  EXPECT_EQ(a.final_fb_size, b.final_fb_size);
  EXPECT_EQ(a.db_final_size, b.db_final_size);
  EXPECT_EQ(a.db_from_direct, b.db_from_direct);
  EXPECT_EQ(a.deauths_sent, b.deauths_sent);
  EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.medium_stats, b.medium_stats);
  EXPECT_EQ(a.error, b.error);
  const auto& ra = a.database.records();
  const auto& rb = b.database.records();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    SCOPED_TRACE(ra[i].ssid);
    EXPECT_EQ(ra[i].ssid, rb[i].ssid);
    EXPECT_EQ(ra[i].weight, rb[i].weight);
    EXPECT_EQ(ra[i].source, rb[i].source);
    EXPECT_EQ(ra[i].hits, rb[i].hits);
    EXPECT_EQ(ra[i].last_hit, rb[i].last_hit);
    EXPECT_EQ(ra[i].added, rb[i].added);
    EXPECT_EQ(ra[i].insertion_order, rb[i].insertion_order);
  }
}

TEST(RunCampaigns, ParallelIsBitIdenticalToSerial) {
  sim::World world(small_scenario());
  const auto runs = mixed_runs();

  std::vector<sim::RunOutput> serial;
  serial.reserve(runs.size());
  for (const auto& run : runs) {
    serial.push_back(sim::run_campaign(world, run));
  }

  const auto parallel =
      sim::run_campaigns(world, runs, sim::ParallelConfig{4});
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
}

// --- Warm-start setup cache ---

TEST(RunCampaigns, WarmStartSetupIsBitIdenticalToColdSetup) {
  // The doc contract on sim::SetupCache: sharing the memoized WiGLE seed
  // and venue locale across runs must be observably invisible. Run every
  // mixed config cold (no cache), then twice against one cache — the
  // second sweep hits the snapshot for every run — and demand identical
  // outputs throughout.
  sim::World world(small_scenario());
  const auto runs = mixed_runs();

  sim::SetupCache cache;
  for (const auto& run : runs) {
    const auto cold = sim::run_campaign(world, run);
    const auto warm_miss = sim::run_campaign(world, run, &cache);
    expect_identical(cold, warm_miss);
  }
  const auto misses_after_first_sweep = cache.misses();
  EXPECT_GT(misses_after_first_sweep, 0u);
  for (const auto& run : runs) {
    const auto cold = sim::run_campaign(world, run);
    const auto warm_hit = sim::run_campaign(world, run, &cache);
    expect_identical(cold, warm_hit);
  }
  // The second sweep built nothing new: every lookup was a hit.
  EXPECT_EQ(cache.misses(), misses_after_first_sweep);
  EXPECT_GE(cache.hits(), runs.size());
}

TEST(RunCampaigns, SetupCacheKeySeparatesEverySetup) {
  // Cached and uncached runs build their setup with the same function, so
  // only the cache key can make them differ. Each variant below changes one
  // field the key covers; sharing one cache, every run must still equal its
  // uncached run, and each distinct setup must be built exactly once.
  sim::World world(small_scenario());
  sim::RunConfig base;
  base.kind = sim::AttackerKind::kCityHunter;
  base.venue = mobility::shopping_center_venue();
  base.slot.expected_clients = 60;
  base.duration = support::SimTime::minutes(2);
  std::vector<sim::RunConfig> runs;
  const auto vary = [&](auto edit) {
    sim::RunConfig run = base;
    edit(run);
    runs.push_back(std::move(run));
  };
  // A warm start with carriers first: the carrier setup's miss, so the
  // carrier run below is a hit that must not inherit its database.
  vary([](sim::RunConfig& r) {
    r.seed_carrier_ssids = true;
    r.initial_database.emplace();
    r.initial_database->add("Carried-Over", 7.0,
                            core::SsidSource::kDirectProbe,
                            support::SimTime::zero());
  });
  vary([](sim::RunConfig&) {});
  vary([](sim::RunConfig& r) { r.wigle_seed.nearby_count = 50; });
  vary([](sim::RunConfig& r) { r.wigle_seed.popular_count = 120; });
  vary([](sim::RunConfig& r) {
    r.wigle_seed.ranking = core::PopularRanking::kApCount;
  });
  vary([](sim::RunConfig& r) { r.seed_carrier_ssids = true; });
  vary([](sim::RunConfig& r) { r.kind = sim::AttackerKind::kPrelim; });
  // A venue name as long as the base's: the key must read its characters.
  vary([](sim::RunConfig& r) { r.venue = mobility::railway_station_venue(); });
  constexpr std::uint64_t kDistinctSetups = 7;

  std::vector<sim::RunOutput> uncached;
  for (const auto& run : runs) {
    uncached.push_back(sim::run_campaign(world, run));
  }
  sim::SetupCache cache;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "pass " << pass << " run " << i);
      expect_identical(uncached[i], sim::run_campaign(world, runs[i], &cache));
    }
    EXPECT_EQ(cache.misses(), kDistinctSetups);
  }
  EXPECT_EQ(cache.hits(), 2 * runs.size() - kDistinctSetups);
}

TEST(RunCampaigns, SetupCacheIsBoundToOneWorld) {
  // A snapshot seeded from one world must never leak into another: the
  // cache binds to the first world it sees and rejects the rest loudly.
  sim::World world_a(small_scenario());
  sim::ScenarioConfig other = small_scenario();
  other.seed = 8;
  sim::World world_b(other);

  sim::SetupCache cache;
  sim::RunConfig run;
  run.kind = sim::AttackerKind::kCityHunter;
  run.duration = support::SimTime::minutes(1);
  run.run_seed = 1;
  (void)sim::run_campaign(world_a, run, &cache);
  EXPECT_THROW((void)sim::run_campaign(world_b, run, &cache),
               std::logic_error);
}

TEST(RunCampaigns, OutputsPreserveInputOrder) {
  sim::World world(small_scenario());
  // Same run at different seeds: outputs must line up with their configs,
  // not with completion order.
  std::vector<sim::RunConfig> runs(3);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].kind = sim::AttackerKind::kMana;
    runs[i].slot.expected_clients = 100;
    runs[i].duration = support::SimTime::minutes(5);
    runs[i].run_seed = i + 1;
  }
  const auto outputs = sim::run_campaigns(world, runs, sim::ParallelConfig{3});
  ASSERT_EQ(outputs.size(), 3u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto expected = sim::run_campaign(world, runs[i]);
    SCOPED_TRACE(i);
    expect_identical(expected, outputs[i]);
  }
}

// --- Failure isolation ---

/// Three short runs; the middle one carries a medium override that the
/// Medium constructor rejects, so it deterministically throws inside
/// run_campaign.
std::vector<sim::RunConfig> runs_with_poison(const sim::World& world) {
  std::vector<sim::RunConfig> runs(3);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].kind = sim::AttackerKind::kMana;
    runs[i].slot.expected_clients = 80;
    runs[i].duration = support::SimTime::minutes(2);
    runs[i].run_seed = i + 1;
  }
  medium::Medium::Config bad = world.config().medium;
  bad.contention_factor = -1.0;
  runs[1].medium = bad;
  return runs;
}

void expect_failure_isolated(const sim::World& world,
                             const std::vector<sim::RunConfig>& runs,
                             const std::vector<sim::RunOutput>& outputs) {
  ASSERT_EQ(outputs.size(), runs.size());
  // The poisoned run reports its identity and the exception text instead of
  // taking the campaign down. Both attempts throw (the bad config is part
  // of the run), so the default one-retry budget is exhausted.
  EXPECT_EQ(sim::failed_runs(outputs), 1u);
  EXPECT_EQ(outputs[1].error.kind, sim::RunErrorKind::kRetryExhausted)
      << outputs[1].error.str();
  EXPECT_EQ(outputs[1].error.attempts, 2u);
  EXPECT_NE(outputs[1].error.message.find("run_seed=2"), std::string::npos)
      << outputs[1].error.message;
  EXPECT_NE(outputs[1].error.message.find("contention_factor"),
            std::string::npos)
      << outputs[1].error.message;
  EXPECT_EQ(outputs[1].result.total_clients, 0u);
  // Healthy neighbours are untouched: bit-identical to standalone runs.
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(i);
    EXPECT_FALSE(outputs[i].error.failed()) << outputs[i].error.str();
    expect_identical(sim::run_campaign(world, runs[i]), outputs[i]);
  }
}

TEST(RunCampaigns, ThrowingRunIsIsolatedInThePool) {
  sim::World world(small_scenario());
  const auto runs = runs_with_poison(world);
  const auto outputs =
      sim::run_campaigns(world, runs, sim::ParallelConfig{4});
  expect_failure_isolated(world, runs, outputs);
}

TEST(RunCampaigns, ThrowingRunIsIsolatedOnTheSerialPath) {
  sim::World world(small_scenario());
  const auto runs = runs_with_poison(world);
  const auto outputs =
      sim::run_campaigns(world, runs, sim::ParallelConfig{1});
  expect_failure_isolated(world, runs, outputs);
}

TEST(RunCampaigns, FailedRunsCountsEveryError) {
  std::vector<sim::RunOutput> outputs(4);
  EXPECT_EQ(sim::failed_runs(outputs), 0u);
  outputs[0].error.kind = sim::RunErrorKind::kException;
  outputs[0].error.message = "run_seed=1 venue=v attacker=a: boom";
  outputs[3].error.kind = sim::RunErrorKind::kDeadlineExceeded;
  outputs[3].error.message = "run_seed=4 venue=v attacker=a: slow";
  EXPECT_EQ(sim::failed_runs(outputs), 2u);
}

TEST(RunCampaigns, SingleThreadAndEmptyInputWork) {
  sim::World world(small_scenario());
  EXPECT_TRUE(sim::run_campaigns(world, {}).empty());

  std::vector<sim::RunConfig> one(1);
  one[0].kind = sim::AttackerKind::kKarma;
  one[0].slot.expected_clients = 60;
  one[0].duration = support::SimTime::minutes(2);
  const auto outputs = sim::run_campaigns(world, one, sim::ParallelConfig{1});
  ASSERT_EQ(outputs.size(), 1u);
  expect_identical(sim::run_campaign(world, one[0]), outputs[0]);
}

}  // namespace
}  // namespace cityhunter
