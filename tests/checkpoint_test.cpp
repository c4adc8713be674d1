// Campaign checkpoint/resume (sim/checkpoint + resume_campaigns).
//
// The load-bearing claims under test:
//   * a resumed campaign's final output vector is byte-identical to an
//     uninterrupted one, at 1 and 4 workers (DESIGN.md §5f);
//   * every flavour of checkpoint damage — truncation, bit flip, version
//     skew, wrong campaign, structural lies — yields its own distinct,
//     actionable error and NEVER a partial resume;
//   * the checkpoint cadence is exactly every K completions plus the final
//     one, through the crash-safe atomic writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

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

/// Six short runs over two venues; one samples a series and one carries obs
/// so the checkpoint exercises the metrics/trace fields too.
std::vector<sim::RunConfig> small_runs() {
  std::vector<sim::RunConfig> runs(6);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].kind = (i % 2 == 0) ? sim::AttackerKind::kMana
                                : sim::AttackerKind::kCityHunter;
    runs[i].venue = (i % 2 == 0) ? mobility::canteen_venue()
                                 : mobility::subway_passage_venue();
    runs[i].slot.expected_clients = 60.0 + 10.0 * static_cast<double>(i);
    runs[i].duration = support::SimTime::minutes(2);
    runs[i].run_seed = i + 1;
  }
  runs[2].sample_every = support::SimTime::seconds(30);
  runs[3].obs.enabled = true;
  return runs;
}

void expect_same_bytes(const std::vector<sim::RunOutput>& a,
                       const std::vector<sim::RunOutput>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(sim::run_output_bytes(a[i]), sim::run_output_bytes(b[i]));
  }
}

sim::CheckpointErrorKind decode_kind(const std::string& bytes) {
  auto decoded = sim::decode_checkpoint(bytes);
  const auto* err = std::get_if<sim::CheckpointError>(&decoded);
  EXPECT_NE(err, nullptr) << "damaged checkpoint decoded successfully";
  return err != nullptr ? err->kind : sim::CheckpointErrorKind::kIoError;
}

// --- format round trip and damage taxonomy (no World needed) ---

sim::CampaignCheckpoint tiny_checkpoint() {
  sim::CampaignCheckpoint cp;
  cp.config_hash = 0x1122334455667788ULL;
  cp.total_runs = 4;
  for (std::uint32_t idx : {0u, 2u}) {
    sim::CompletedRun run;
    run.index = idx;
    run.output.result.label = "run-" + std::to_string(idx);
    run.output.result.total_clients = 10 + idx;
    run.output.result.ssids_sent_connected = {1, 2, 3};
    run.output.db_final_size = 42;
    run.output.phases.sim_s = 0.25 * (idx + 1);
    run.output.database.add("cafe-ssid", 2.5, core::SsidSource::kWigleNearby,
                            support::SimTime::seconds(5));
    run.output.database.record_hit("cafe-ssid", 1.0,
                                   support::SimTime::seconds(9));
    run.output.error.kind = idx == 2 ? sim::RunErrorKind::kDeadlineExceeded
                                     : sim::RunErrorKind::kNone;
    if (idx == 2) {
      run.output.error.message = "run_seed=3 venue=v attacker=a: slow";
      run.output.error.attempts = 2;
    }
    cp.completed.push_back(std::move(run));
  }
  return cp;
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const sim::CampaignCheckpoint cp = tiny_checkpoint();
  const std::string bytes = sim::encode_checkpoint(cp);
  auto decoded = sim::decode_checkpoint(bytes);
  ASSERT_TRUE(std::holds_alternative<sim::CampaignCheckpoint>(decoded))
      << std::get<sim::CheckpointError>(decoded).str();
  const auto& back = std::get<sim::CampaignCheckpoint>(decoded);
  EXPECT_EQ(back.config_hash, cp.config_hash);
  EXPECT_EQ(back.total_runs, cp.total_runs);
  ASSERT_EQ(back.completed.size(), cp.completed.size());
  for (std::size_t i = 0; i < cp.completed.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(back.completed[i].index, cp.completed[i].index);
    EXPECT_EQ(sim::run_output_bytes(back.completed[i].output),
              sim::run_output_bytes(cp.completed[i].output));
    // Wallclock phases ride through the file verbatim even though the
    // deterministic canon above deliberately excludes them.
    EXPECT_EQ(back.completed[i].output.phases.sim_s,
              cp.completed[i].output.phases.sim_s);
    // The restored database behaves like the original, not just stores the
    // same records: lookups and orderings go through the rebuilt index.
    const auto* rec = back.completed[i].output.database.find("cafe-ssid");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->hits, 1);
  }
  // A structured error survives the trip.
  EXPECT_EQ(back.completed[1].output.error.kind,
            sim::RunErrorKind::kDeadlineExceeded);
  EXPECT_EQ(back.completed[1].output.error.attempts, 2u);
}

TEST(Checkpoint, TruncationIsItsOwnError) {
  const std::string bytes = sim::encode_checkpoint(tiny_checkpoint());
  // Cut in the payload, in the header, and down to almost nothing: all
  // truncation, never a CRC complaint or a partial parse.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{20}, std::size_t{3}}) {
    SCOPED_TRACE(keep);
    EXPECT_EQ(decode_kind(bytes.substr(0, keep)),
              sim::CheckpointErrorKind::kTruncated);
  }
}

TEST(Checkpoint, BitFlipIsCrcMismatch) {
  const std::string bytes = sim::encode_checkpoint(tiny_checkpoint());
  // Flip one payload bit well past the header fields the decoder
  // interprets before the CRC check.
  for (const std::size_t at : {bytes.size() / 2, bytes.size() - 5}) {
    SCOPED_TRACE(at);
    std::string damaged = bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
    EXPECT_EQ(decode_kind(damaged), sim::CheckpointErrorKind::kCrcMismatch);
  }
}

TEST(Checkpoint, WrongVersionIsItsOwnError) {
  // A future version; version 2, whose runs were simulated with unicast
  // frames fanned out to every bystander and rank-ordered loss draws, so
  // their delivery counts and lossy outcomes differ from a fresh run of the
  // same config; and version 3, whose observed runs carry the pathloss
  // cache counters a fresh run no longer reports; version 4, whose phones
  // still heard each other's broadcast probe requests, so its delivery and
  // loss counts are larger; version 5, whose lossy runs drew their
  // collisions, corruption, backoff and bit flips from a seeded stream; and
  // version 6, whose observed runs carry wallclock timer metric points.
  // None may resume next to fresh runs.
  ASSERT_EQ(sim::CampaignCheckpoint::kFormatVersion, 7u);
  for (const std::uint32_t version :
       {sim::CampaignCheckpoint::kFormatVersion + 1, std::uint32_t{2},
        std::uint32_t{3}, std::uint32_t{4}, std::uint32_t{5},
        std::uint32_t{6}}) {
    SCOPED_TRACE(version);
    std::string bytes = sim::encode_checkpoint(tiny_checkpoint());
    bytes[4] = static_cast<char>(version);
    EXPECT_EQ(decode_kind(bytes), sim::CheckpointErrorKind::kBadVersion);
  }
}

TEST(Checkpoint, ForeignFileIsBadMagic) {
  EXPECT_EQ(decode_kind("JSON{\"not\": \"a checkpoint\"} padding padding"),
            sim::CheckpointErrorKind::kBadMagic);
}

TEST(Checkpoint, StructuralLiesAreMalformed) {
  // An index >= total_runs with a freshly sealed CRC: the container is
  // intact, the content lies.
  sim::CampaignCheckpoint cp = tiny_checkpoint();
  cp.completed[1].index = cp.total_runs;
  EXPECT_EQ(decode_kind(sim::encode_checkpoint(cp)),
            sim::CheckpointErrorKind::kMalformed);
}

TEST(Checkpoint, MissingFileIsIoError) {
  auto loaded = sim::load_checkpoint(
      std::string(::testing::TempDir()) + "no-such-checkpoint.ckpt", 0);
  const auto* err = std::get_if<sim::CheckpointError>(&loaded);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->kind, sim::CheckpointErrorKind::kIoError);
}

TEST(Checkpoint, LoadRejectsForeignCampaignHash) {
  TempFile file("foreign.ckpt");
  const sim::CampaignCheckpoint cp = tiny_checkpoint();
  std::string error;
  ASSERT_TRUE(sim::write_checkpoint(file.path(), cp, &error)) << error;
  auto loaded = sim::load_checkpoint(file.path(), cp.config_hash + 1);
  const auto* err = std::get_if<sim::CheckpointError>(&loaded);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->kind, sim::CheckpointErrorKind::kConfigMismatch);
}

// --- end-to-end against real campaigns (shared World, built once) ---

class CheckpointCampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new sim::World(small_scenario(11)); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static sim::World* world_;
};

sim::World* CheckpointCampaignTest::world_ = nullptr;

TEST_F(CheckpointCampaignTest, ConfigHashSeparatesCampaigns) {
  const auto runs = small_runs();
  const std::uint64_t base = sim::campaign_config_hash(*world_, runs);
  EXPECT_EQ(sim::campaign_config_hash(*world_, runs), base)
      << "hash must be a pure function of the configs";
  auto reseeded = runs;
  reseeded[3].run_seed = 99;
  EXPECT_NE(sim::campaign_config_hash(*world_, reseeded), base);
  auto longer = runs;
  longer[1].duration = support::SimTime::minutes(3);
  EXPECT_NE(sim::campaign_config_hash(*world_, longer), base);

  // Attacker knobs change what the run computes, so they are part of the
  // campaign's identity.
  auto untracked = runs;
  untracked[1].cityhunter.untried_tracking = false;  // a City-Hunter run
  EXPECT_NE(sim::campaign_config_hash(*world_, untracked), base);

  // The hash covers the medium config a run resolves to: an override equal
  // to the world's medium is the same campaign, a lossier one is not.
  auto same_medium = runs;
  same_medium[4].medium = world_->config().medium;
  EXPECT_EQ(sim::campaign_config_hash(*world_, same_medium), base);
  auto lossier = same_medium;
  lossier[4].medium->fault.ambient_loss = 0.3;
  EXPECT_NE(sim::campaign_config_hash(*world_, lossier),
            sim::campaign_config_hash(*world_, same_medium));
}

TEST_F(CheckpointCampaignTest, WritesEveryKCompletionsAndAtTheEnd) {
  TempFile file("cadence.ckpt");
  const auto runs = small_runs();
  sim::ParallelConfig cfg{1};
  cfg.checkpoint_path = file.path();
  cfg.checkpoint_every = 2;
  sim::ParallelStats stats;
  const auto outputs = sim::run_campaigns(*world_, runs, cfg, &stats);
  EXPECT_EQ(sim::failed_runs(outputs), 0u);
  // 6 runs, every 2 -> writes at 2, 4 and 6 completions.
  EXPECT_EQ(stats.checkpoint_writes, 3u);
  EXPECT_GT(stats.checkpoint_bytes, 0u);
  EXPECT_EQ(stats.checkpoint_write_failures, 0u);

  // The final file on disk holds every run, verbatim.
  auto loaded = sim::load_checkpoint(
      file.path(), sim::campaign_config_hash(*world_, runs));
  ASSERT_TRUE(std::holds_alternative<sim::CampaignCheckpoint>(loaded))
      << std::get<sim::CheckpointError>(loaded).str();
  const auto& cp = std::get<sim::CampaignCheckpoint>(loaded);
  ASSERT_EQ(cp.completed.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(cp.completed[i].index, i);
    EXPECT_EQ(sim::run_output_bytes(cp.completed[i].output),
              sim::run_output_bytes(outputs[i]));
  }
}

TEST_F(CheckpointCampaignTest, ResumeIsByteIdenticalToUninterrupted) {
  const auto runs = small_runs();
  const auto uninterrupted = sim::run_campaigns(*world_, runs, {1});
  ASSERT_EQ(sim::failed_runs(uninterrupted), 0u);

  // Simulate a crash after 3 completions: a checkpoint holding only runs
  // 0-2, exactly as the cadence writer would have left it.
  sim::CampaignCheckpoint partial;
  partial.config_hash = sim::campaign_config_hash(*world_, runs);
  partial.total_runs = static_cast<std::uint32_t>(runs.size());
  for (std::uint32_t i = 0; i < 3; ++i) {
    partial.completed.push_back({i, uninterrupted[i]});
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    TempFile file("resume.ckpt");
    std::string error;
    ASSERT_TRUE(sim::write_checkpoint(file.path(), partial, &error)) << error;

    sim::ParallelConfig cfg{workers};
    cfg.checkpoint_path = file.path();
    cfg.checkpoint_every = 2;
    sim::ParallelStats stats;
    const auto resumed = sim::resume_campaigns(*world_, runs, cfg, &stats);
    EXPECT_EQ(stats.resumed_runs, 3u);
    expect_same_bytes(uninterrupted, resumed);
  }
}

TEST_F(CheckpointCampaignTest, ResumeRefusesWrongCampaign) {
  TempFile file("wrong.ckpt");
  const auto runs = small_runs();
  sim::CampaignCheckpoint cp;
  cp.config_hash = sim::campaign_config_hash(*world_, runs) ^ 0xdead;
  cp.total_runs = static_cast<std::uint32_t>(runs.size());
  std::string error;
  ASSERT_TRUE(sim::write_checkpoint(file.path(), cp, &error)) << error;

  sim::ParallelConfig cfg{1};
  cfg.checkpoint_path = file.path();
  try {
    sim::resume_campaigns(*world_, runs, cfg);
    FAIL() << "resume accepted a foreign campaign's checkpoint";
  } catch (const sim::CheckpointResumeError& e) {
    EXPECT_EQ(e.error().kind, sim::CheckpointErrorKind::kConfigMismatch);
  }
}

TEST_F(CheckpointCampaignTest, ResumeRefusesCorruptCheckpoint) {
  TempFile file("corrupt.ckpt");
  const auto runs = small_runs();
  sim::CampaignCheckpoint cp;
  cp.config_hash = sim::campaign_config_hash(*world_, runs);
  cp.total_runs = static_cast<std::uint32_t>(runs.size());
  std::string bytes = sim::encode_checkpoint(cp);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  std::string error;
  ASSERT_TRUE(support::write_file_atomic(file.path(), bytes, &error)) << error;

  sim::ParallelConfig cfg{1};
  cfg.checkpoint_path = file.path();
  try {
    sim::resume_campaigns(*world_, runs, cfg);
    FAIL() << "resume accepted a bit-flipped checkpoint";
  } catch (const sim::CheckpointResumeError& e) {
    EXPECT_EQ(e.error().kind, sim::CheckpointErrorKind::kCrcMismatch);
  }
}

TEST_F(CheckpointCampaignTest, ResumeRequiresAPath) {
  const auto runs = small_runs();
  EXPECT_THROW(sim::resume_campaigns(*world_, runs, sim::ParallelConfig{1}),
               std::invalid_argument);
}

TEST_F(CheckpointCampaignTest, CheckpointEveryIsValidated) {
  const auto runs = small_runs();
  sim::ParallelConfig cfg{1};
  cfg.checkpoint_every = 0;
  EXPECT_THROW(sim::run_campaigns(*world_, runs, cfg), std::invalid_argument);
}

// --- atomic file writer (support/atomic_file) ---

TEST(AtomicFile, WriteReplacesWholeFile) {
  TempFile file("atomic.txt");
  std::string error;
  ASSERT_TRUE(support::write_file_atomic(file.path(), "first", &error))
      << error;
  ASSERT_TRUE(support::write_file_atomic(file.path(), "second-longer", &error))
      << error;
  std::ifstream in(file.path(), std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second-longer");
}

TEST(AtomicFile, ReportsUnwritableDirectory) {
  std::string error;
  EXPECT_FALSE(support::write_file_atomic(
      "/no-such-dir-cityhunter/x.txt", "bytes", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace cityhunter
