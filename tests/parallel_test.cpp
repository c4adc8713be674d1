#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel.h"
#include "small_world.h"
#include "support/parallel_for.h"

namespace cityhunter {
namespace {

// --- parallel_for ---

TEST(ParallelFor, EveryItemRunsExactlyOnce) {
  for (const std::size_t lanes : {0u, 1u, 3u, 8u}) {
    for (const std::size_t n : {0u, 1u, 2u, 7u, 1000u}) {
      SCOPED_TRACE(testing::Message() << lanes << " lanes, " << n << " items");
      std::vector<std::atomic<int>> calls(n);
      std::atomic<bool> lane_in_range{true};
      support::parallel_for(lanes, n, [&](std::size_t lane, std::size_t item) {
        calls[item].fetch_add(1);
        if (lane >= std::max<std::size_t>(lanes, 1)) lane_in_range = false;
      });
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(calls[i].load(), 1) << i;
      EXPECT_TRUE(lane_in_range.load());
    }
  }
}

TEST(ParallelFor, PlainWritesAreVisibleAfterReturn) {
  // Items write plain, non-atomic slots: the join alone must publish them.
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint64_t> out(64, 0);
    support::parallel_for(4, out.size(), [&out](std::size_t, std::size_t i) {
      out[i] = i * 1000 + 7;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i * 1000 + 7) << "round " << round;
    }
  }
}

TEST(ParallelFor, ThrowStopsFurtherItemsAndIsRethrownAfterTheJoin) {
  constexpr std::size_t kItems = 1000;
  for (const std::size_t lanes : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    std::atomic<std::size_t> started{0};
    std::atomic<int> in_flight{0};
    bool rethrown = false;
    try {
      support::parallel_for(lanes, kItems, [&](std::size_t, std::size_t item) {
        ++started;
        if (item == 3) throw std::runtime_error("item 3");
        ++in_flight;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        --in_flight;
      });
    } catch (const std::runtime_error& e) {
      rethrown = true;
      EXPECT_STREQ(e.what(), "item 3");
      // Every lane had finished its item before the rethrow.
      EXPECT_EQ(in_flight.load(), 0);
    }
    EXPECT_TRUE(rethrown);
    // One lane takes items in order and stops at the throw; more lanes
    // finish the items they hold and start no others.
    if (lanes == 1) {
      EXPECT_EQ(started.load(), 4u);
    } else {
      EXPECT_LT(started.load(), kItems / 2);
    }
  }
}

TEST(ParallelFor, DefaultWorkersHonoursEnvOverride) {
  ::setenv("CITYHUNTER_THREADS", "3", 1);
  EXPECT_EQ(support::default_workers(), 3u);
  ::setenv("CITYHUNTER_THREADS", "not-a-number", 1);
  EXPECT_GE(support::default_workers(), 1u);
  ::unsetenv("CITYHUNTER_THREADS");
  EXPECT_GE(support::default_workers(), 1u);
}

// --- run_campaigns ---

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
  sim::World world(small_scenario(7));
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

TEST(RunCampaigns, OutputsPreserveInputOrder) {
  sim::World world(small_scenario(7));
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
  // taking the campaign down, after its one and only attempt.
  EXPECT_EQ(sim::failed_runs(outputs), 1u);
  EXPECT_EQ(outputs[1].error.kind, sim::RunErrorKind::kException)
      << outputs[1].error.str();
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
  sim::World world(small_scenario(7));
  const auto runs = runs_with_poison(world);
  const auto outputs =
      sim::run_campaigns(world, runs, sim::ParallelConfig{4});
  expect_failure_isolated(world, runs, outputs);
}

TEST(RunCampaigns, ThrowingRunIsIsolatedOnTheSerialPath) {
  sim::World world(small_scenario(7));
  const auto runs = runs_with_poison(world);
  const auto outputs =
      sim::run_campaigns(world, runs, sim::ParallelConfig{1});
  expect_failure_isolated(world, runs, outputs);
}

TEST(RunCampaigns, StatsKeepOneLoadPerLaneThatAttempted) {
  sim::World world(small_scenario(7));
  const auto runs = runs_with_poison(world);
  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    sim::ParallelStats stats;
    (void)sim::run_campaigns(world, runs, sim::ParallelConfig{threads},
                             &stats);
    EXPECT_EQ(stats.workers, std::min<std::size_t>(threads, runs.size()));
    ASSERT_FALSE(stats.loads.empty());
    EXPECT_LE(stats.loads.size(), stats.workers);
    std::size_t attempts = 0;
    for (const auto& load : stats.loads) {
      EXPECT_GT(load.runs, 0u);
      attempts += load.runs;
    }
    // Three runs, each started once: the poisoned one is not retried.
    EXPECT_EQ(attempts, runs.size());
  }
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
  sim::World world(small_scenario(7));
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
