// Chaos harness drills (ctest label: chaos, tsan-clean).
//
// Proves the run supervisor survives everything the chaos layer can throw
// at it:
//   * injected throw    -> retried clean, final output byte-identical;
//   * injected hang     -> watchdog classifies kDeadlineExceeded, retry
//                          recovers, backoff schedule is deterministic;
//   * poisoned schedule -> PastScheduleError surfaces as a classified
//                          kException, not an anonymous crash;
//   * event budget      -> kEventBudgetExceeded;
//   * cancellation      -> kCancelled and never retried;
//   * SIGKILL mid-campaign (subprocess, fork+exec of this binary with
//     --chaos-child) -> resume from the checkpoint converges to the
//     byte-identical uninterrupted output, at 1 and 4 workers.
//
// The RunGuard primitives in medium/event_queue get their unit coverage
// here too, next to the supervisor behaviour they exist for.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "medium/event_queue.h"
#include "sim/checkpoint.h"
#include "sim/parallel.h"
#include "small_world.h"
#include "support/atomic_file.h"

namespace cityhunter {
namespace {

class TempFile {
 public:
  explicit TempFile(const char* name)
      : path_(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<sim::RunConfig> chaos_runs(std::size_t count = 6) {
  std::vector<sim::RunConfig> runs(count);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].kind = (i % 2 == 0) ? sim::AttackerKind::kMana
                                : sim::AttackerKind::kCityHunter;
    runs[i].venue = (i % 2 == 0) ? mobility::canteen_venue()
                                 : mobility::subway_passage_venue();
    runs[i].slot.expected_clients = 50.0 + 10.0 * static_cast<double>(i);
    runs[i].duration = support::SimTime::minutes(2);
    runs[i].run_seed = i + 1;
  }
  return runs;
}

/// Length-prefixed concatenation of every output's canonical bytes — the
/// unit of byte-identity the kill-and-resume drill compares across
/// processes.
std::string outputs_blob(const std::vector<sim::RunOutput>& outputs) {
  std::string blob;
  for (const auto& out : outputs) {
    const std::string bytes = sim::run_output_bytes(out);
    const std::uint32_t n = static_cast<std::uint32_t>(bytes.size());
    blob.append(reinterpret_cast<const char*>(&n), sizeof(n));
    blob.append(bytes);
  }
  return blob;
}

// --- RunGuard / EventQueue primitives ---

TEST(RunGuard, EventBudgetTripsWithItsOwnKind) {
  medium::EventQueue events;
  // A self-rescheduling tick would run forever; the budget must cut it off.
  std::uint64_t fired = 0;
  const auto schedule = [&events, &fired](auto&& self) -> void {
    events.post_in(support::SimTime::microseconds(1), [&fired, self]() mutable {
      ++fired;
      self(self);
    });
  };
  schedule(schedule);
  medium::RunGuard guard;
  guard.max_events = 100;
  events.arm_guard(guard);
  try {
    events.run_until(support::SimTime::seconds(10));
    FAIL() << "budget never tripped (fired " << fired << ")";
  } catch (const medium::RunAbortError& e) {
    EXPECT_EQ(e.kind(), medium::RunAbortError::Kind::kEventBudgetExceeded);
  }
  EXPECT_LE(fired, 100u);
}

TEST(RunGuard, DeadlineTripsWithItsOwnKind) {
  medium::EventQueue events;
  const auto schedule = [&events](auto&& self) -> void {
    events.post_in(support::SimTime::microseconds(1),
                   [self]() mutable { self(self); });
  };
  schedule(schedule);
  medium::RunGuard guard;
  guard.deadline_s = 1e-9;  // already elapsed by the first stride check
  events.arm_guard(guard);
  EXPECT_THROW(
      {
        try {
          events.run_until(support::SimTime::seconds(10));
        } catch (const medium::RunAbortError& e) {
          EXPECT_EQ(e.kind(), medium::RunAbortError::Kind::kDeadlineExceeded);
          throw;
        }
      },
      medium::RunAbortError);
}

TEST(RunGuard, CancelFlagTripsWithItsOwnKind) {
  medium::EventQueue events;
  events.post_in(support::SimTime::microseconds(1), [] {});
  std::atomic<bool> cancel{true};
  medium::RunGuard guard;
  guard.cancel = &cancel;
  events.arm_guard(guard);
  EXPECT_THROW(
      {
        try {
          events.run_until(support::SimTime::seconds(1));
        } catch (const medium::RunAbortError& e) {
          EXPECT_EQ(e.kind(), medium::RunAbortError::Kind::kCancelled);
          throw;
        }
      },
      medium::RunAbortError);
}

TEST(RunGuard, DefaultGuardNeverTrips) {
  medium::EventQueue events;
  int fired = 0;
  for (int i = 0; i < 5000; ++i) {
    events.post_in(support::SimTime::microseconds(i), [&fired] { ++fired; });
  }
  events.arm_guard(medium::RunGuard{});
  events.run_all();
  EXPECT_EQ(fired, 5000);
}

TEST(EventQueue, PastSchedulingIsAStructuredError) {
  medium::EventQueue events;
  events.post_in(support::SimTime::seconds(1), [] {});
  events.run_all();  // now() == 1s
  try {
    events.post_at(support::SimTime::microseconds(10), [] {});
    FAIL() << "scheduling in the past was accepted";
  } catch (const medium::PastScheduleError& e) {
    EXPECT_EQ(e.now(), support::SimTime::seconds(1));
    EXPECT_EQ(e.requested(), support::SimTime::microseconds(10));
    EXPECT_NE(std::string(e.what()).find("scheduling in the past"),
              std::string::npos)
        << e.what();
  }
}

// --- deterministic backoff ---

TEST(RetryBackoff, ScheduleIsPureAndExponential) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    for (std::uint32_t attempt = 0; attempt < 6; ++attempt) {
      SCOPED_TRACE(attempt);
      const double d = sim::retry_backoff_s(seed, attempt);
      // Re-evaluation gives the exact same delay: no wallclock, no global
      // RNG.
      EXPECT_EQ(d, sim::retry_backoff_s(seed, attempt));
      // Exponential envelope: base 1ms * 2^attempt plus jitter < base.
      const double base = 0.001 * static_cast<double>(1u << attempt);
      EXPECT_GE(d, base);
      EXPECT_LT(d, 2.0 * base);
    }
  }
  // Different seeds jitter differently (with overwhelming likelihood for
  // these fixed inputs — asserted as a regression pin, not a probability).
  EXPECT_NE(sim::retry_backoff_s(1, 0), sim::retry_backoff_s(2, 0));
  // The exact schedule, pinned: a retried campaign's timing must not move
  // when the hash behind the jitter is refactored.
  EXPECT_EQ(sim::retry_backoff_s(1, 0), 0x1.9aaa2aee1db4ap-10);
  EXPECT_EQ(sim::retry_backoff_s(42, 3), 0x1.605f1cab10afp-7);
}

// --- ChaosConfig env parsing ---

TEST(ChaosConfig, ParsesEnvKnobs) {
  ::setenv("CITYHUNTER_CHAOS", "throw=1,hang=2,poison=0,kill_after=7", 1);
  const auto c = sim::ChaosConfig::from_env();
  EXPECT_EQ(c.throw_run, 1);
  EXPECT_EQ(c.hang_run, 2);
  EXPECT_EQ(c.poison_run, 0);
  EXPECT_EQ(c.kill_after, 7);
  ::setenv("CITYHUNTER_CHAOS", "hang=3,garbage,alpha=beta", 1);
  const auto partial = sim::ChaosConfig::from_env();
  EXPECT_EQ(partial.hang_run, 3);
  EXPECT_EQ(partial.throw_run, -1);
  ::unsetenv("CITYHUNTER_CHAOS");
  EXPECT_FALSE(sim::ChaosConfig::from_env().any());
}

// --- supervisor recovery (shared World, built once per process) ---

class ChaosCampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new sim::World(small_scenario(13)); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static sim::World* world_;
};

sim::World* ChaosCampaignTest::world_ = nullptr;

TEST_F(ChaosCampaignTest, InjectedThrowIsRetriedToIdenticalOutput) {
  const auto runs = chaos_runs(3);
  const auto clean = sim::run_campaigns(*world_, runs, {1});
  ASSERT_EQ(sim::failed_runs(clean), 0u);

  sim::ParallelConfig cfg{1};
  cfg.chaos.throw_run = 1;
  sim::ParallelStats stats;
  const auto chaosed = sim::run_campaigns(*world_, runs, cfg, &stats);
  EXPECT_EQ(sim::failed_runs(chaosed), 0u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(outputs_blob(clean), outputs_blob(chaosed));
}

TEST_F(ChaosCampaignTest, InjectedHangIsClassifiedDeadlineAndRecovered) {
  const auto runs = chaos_runs(2);
  const auto clean = sim::run_campaigns(*world_, runs, {1});
  ASSERT_EQ(sim::failed_runs(clean), 0u);

  sim::ParallelConfig cfg{1};
  cfg.chaos.hang_run = 0;
  sim::ParallelStats stats;
  const auto chaosed = sim::run_campaigns(*world_, runs, cfg, &stats);
  // The watchdog caught the hang (classified kDeadlineExceeded -> timeouts
  // counter), the retry ran clean, and the final output is unscathed.
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(sim::failed_runs(chaosed), 0u);
  EXPECT_EQ(outputs_blob(clean), outputs_blob(chaosed));
}

TEST_F(ChaosCampaignTest, HangWithoutRetriesSurfacesDeadlineExceeded) {
  auto runs = chaos_runs(1);
  runs[0].max_retries = 0;
  sim::ParallelConfig cfg{1};
  cfg.chaos.hang_run = 0;
  sim::ParallelStats stats;
  const auto outputs = sim::run_campaigns(*world_, runs, cfg, &stats);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].error.kind, sim::RunErrorKind::kDeadlineExceeded)
      << outputs[0].error.str();
  EXPECT_EQ(outputs[0].error.attempts, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_NE(outputs[0].error.message.find("run_seed=1"), std::string::npos)
      << outputs[0].error.message;
}

TEST_F(ChaosCampaignTest, PoisonedScheduleIsAClassifiedException) {
  auto runs = chaos_runs(1);
  runs[0].max_retries = 0;
  sim::ParallelConfig cfg{1};
  cfg.chaos.poison_run = 0;
  const auto outputs = sim::run_campaigns(*world_, runs, cfg);
  ASSERT_EQ(outputs.size(), 1u);
  // Regression net for the taxonomy satellite: the queue's past-scheduling
  // guard must arrive as a classified failure with its structured message,
  // not as an unhandled std::runtime_error killing the campaign.
  EXPECT_EQ(outputs[0].error.kind, sim::RunErrorKind::kException)
      << outputs[0].error.str();
  EXPECT_NE(outputs[0].error.message.find("scheduling in the past"),
            std::string::npos)
      << outputs[0].error.message;
}

TEST_F(ChaosCampaignTest, EventBudgetTripSurfacesItsOwnKind) {
  auto runs = chaos_runs(1);
  runs[0].max_sim_events = 500;  // a 2-minute venue run needs far more
  runs[0].max_retries = 0;
  sim::ParallelStats stats;
  const auto outputs = sim::run_campaigns(*world_, runs, {1}, &stats);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].error.kind, sim::RunErrorKind::kEventBudgetExceeded)
      << outputs[0].error.str();
  EXPECT_EQ(stats.event_budget_trips, 1u);
}

TEST_F(ChaosCampaignTest, ExhaustedRetriesKeepTheLastFailure) {
  auto runs = chaos_runs(1);
  runs[0].max_sim_events = 500;  // trips on every attempt
  runs[0].max_retries = 2;
  sim::ParallelStats stats;
  const auto outputs = sim::run_campaigns(*world_, runs, {1}, &stats);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].error.kind, sim::RunErrorKind::kRetryExhausted)
      << outputs[0].error.str();
  EXPECT_EQ(outputs[0].error.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.event_budget_trips, 3u);
}

TEST_F(ChaosCampaignTest, CancelledRunIsNeverRetried) {
  auto runs = chaos_runs(1);
  std::atomic<bool> cancel{true};
  runs[0].cancel = &cancel;
  sim::ParallelStats stats;
  const auto outputs = sim::run_campaigns(*world_, runs, {1}, &stats);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].error.kind, sim::RunErrorKind::kCancelled)
      << outputs[0].error.str();
  EXPECT_EQ(outputs[0].error.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST_F(ChaosCampaignTest, SupervisorLimitsAreValidated) {
  auto runs = chaos_runs(1);
  runs[0].deadline_s = -1.0;
  EXPECT_THROW(
      { (void)sim::run_campaign(*world_, runs[0]); }, std::invalid_argument);

  runs[0].deadline_s = 0.0;
  runs[0].max_retries = 9;
  EXPECT_THROW(
      { (void)sim::run_campaign(*world_, runs[0]); }, std::invalid_argument);

  // Through the supervisor the same bad config is classified, not thrown.
  sim::ParallelStats stats;
  const auto outputs = sim::run_campaigns(*world_, runs, {1}, &stats);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].error.kind, sim::RunErrorKind::kRetryExhausted)
      << outputs[0].error.str();
  EXPECT_NE(outputs[0].error.message.find("max_retries"), std::string::npos)
      << outputs[0].error.message;
}

// --- kill-and-resume drill (subprocess) ---

constexpr int kKillAfter = 3;
constexpr int kResumeFailedExit = 7;

/// Child entry (invoked via --chaos-child). mode "crash": run the campaign
/// with the chaos kill switch armed — the process dies by SIGKILL mid-
/// campaign. mode "resume": resume from the checkpoint and publish the
/// final outputs blob for the parent to compare.
int chaos_child_main(std::string_view mode, const char* ckpt_path,
                     const char* blob_path, std::size_t workers) {
  sim::World world(small_scenario(13));
  const auto runs = chaos_runs();
  sim::ParallelConfig cfg{workers};
  cfg.checkpoint_path = ckpt_path;
  cfg.checkpoint_every = 2;
  if (mode == "crash") {
    cfg.chaos.kill_after = kKillAfter;
    (void)sim::run_campaigns(world, runs, cfg);
    return 1;  // unreachable when the kill switch works
  }
  try {
    const auto outputs = sim::resume_campaigns(world, runs, cfg);
    std::string error;
    if (!support::write_file_atomic(blob_path, outputs_blob(outputs),
                                    &error)) {
      std::fprintf(stderr, "blob write failed: %s\n", error.c_str());
      return 2;
    }
    return 0;
  } catch (const sim::CheckpointResumeError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kResumeFailedExit;
  }
}

/// fork+exec this binary in child mode and return its wait status.
int spawn_child(const char* mode, const std::string& ckpt,
                const std::string& blob, std::size_t workers) {
  const std::string workers_arg = std::to_string(workers);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: exec immediately (async-signal-safe between fork and exec;
    // also what keeps this drill clean under TSan).
    ::execl("/proc/self/exe", "/proc/self/exe", "--chaos-child", mode,
            ckpt.c_str(), blob.c_str(), workers_arg.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

class ChaosKillResumeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChaosKillResumeTest, KilledCampaignResumesByteIdentical) {
  const std::size_t workers = GetParam();
  TempFile ckpt(workers == 1 ? "kill1.ckpt" : "kill4.ckpt");
  TempFile blob(workers == 1 ? "kill1.blob" : "kill4.blob");

  // The oracle: the same campaign, uninterrupted, in this process.
  sim::World world(small_scenario(13));
  const auto runs = chaos_runs();
  const auto expected = sim::run_campaigns(world, runs, {workers});
  ASSERT_EQ(sim::failed_runs(expected), 0u);

  // Phase 1: the crash. The child must die by SIGKILL, not exit.
  const int crash_status =
      spawn_child("crash", ckpt.path(), blob.path(), workers);
  ASSERT_TRUE(WIFSIGNALED(crash_status))
      << "crash child exited instead of dying, status " << crash_status;
  ASSERT_EQ(WTERMSIG(crash_status), SIGKILL);
  // It died past a checkpoint boundary: the file exists and is loadable.
  std::ifstream ckpt_exists(ckpt.path());
  ASSERT_TRUE(ckpt_exists.good())
      << "no checkpoint survived the kill at " << ckpt.path();

  // Phase 2: the resume. A fresh process continues from the checkpoint.
  const int resume_status =
      spawn_child("resume", ckpt.path(), blob.path(), workers);
  ASSERT_TRUE(WIFEXITED(resume_status));
  ASSERT_EQ(WEXITSTATUS(resume_status), 0);

  std::ifstream in(blob.path(), std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string resumed_blob((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  EXPECT_EQ(outputs_blob(expected), resumed_blob)
      << "resumed campaign diverged from the uninterrupted one";
}

INSTANTIATE_TEST_SUITE_P(Workers, ChaosKillResumeTest,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

}  // namespace

/// Exposed for main(): dispatch --chaos-child before gtest sees argv.
int chaos_child_entry(int argc, char** argv) {
  // argv: --chaos-child <mode> <ckpt> <blob> <workers>
  if (argc < 6) return 64;
  return chaos_child_main(argv[2], argv[3], argv[4],
                          static_cast<std::size_t>(std::atoi(argv[5])));
}

}  // namespace cityhunter

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--chaos-child") {
      return cityhunter::chaos_child_entry(argc, argv);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
