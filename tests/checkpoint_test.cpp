// Campaign checkpoint/resume (sim/checkpoint + resume_campaigns).
//
// The load-bearing claims under test:
//   * a resumed campaign's final output vector is byte-identical to an
//     uninterrupted one, at 1 and 4 workers (DESIGN.md §5f);
//   * every flavour of checkpoint damage — truncation, bit flip, version
//     skew, wrong campaign or world, structural lies — yields its own
//     distinct, actionable error and NEVER a partial resume;
//   * the campaign key moves with every leaf of the field lists it walks
//     (sim/fields.h) except the ones marked ignored;
//   * the checkpoint cadence is exactly every K completions plus the final
//     one, through the crash-safe atomic writer.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <variant>
#include <vector>

#include "dot11/crc32.h"
#include "sim/checkpoint.h"
#include "sim/fields.h"
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
  // version 6, whose observed runs carry wallclock timer metric points;
  // and version 7, whose config hash ignored the warm-start database's
  // records and the trace capacity; and version 8, whose config hash
  // ignored the world config beyond its seed and whose errors carry an
  // attempt count. None may resume next to fresh runs.
  ASSERT_EQ(sim::CampaignCheckpoint::kFormatVersion, 9u);
  for (const std::uint32_t version :
       {sim::CampaignCheckpoint::kFormatVersion + 1, std::uint32_t{2},
        std::uint32_t{3}, std::uint32_t{4}, std::uint32_t{5},
        std::uint32_t{6}, std::uint32_t{7}, std::uint32_t{8}}) {
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

/// Recompute the CRC trailer after editing the bytes before it.
void reseal(std::string& bytes) {
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t crc = dot11::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), body));
  for (int i = 0; i < 4; ++i) {
    bytes[body + i] = static_cast<char>(crc >> (8 * i));
  }
}

TEST(Checkpoint, LyingCountIsMalformed) {
  // One run with a three-point series and a two-record database. Patch one
  // count to 0xFFFFFFFF and reseal the CRC: the container is intact, the
  // count lies, and decoding must refuse it before sizing anything by it:
  // 2^32 series points would take ~103 GB.
  sim::CampaignCheckpoint cp;
  cp.total_runs = 1;
  sim::CompletedRun run;
  run.output.series.resize(3);
  run.output.database.add("a", 1.0, core::SsidSource::kWigleNearby,
                          support::SimTime::zero());
  run.output.database.add("b", 1.0, core::SsidSource::kWigleNearby,
                          support::SimTime::zero());
  cp.completed.push_back(std::move(run));
  const std::string bytes = sim::encode_checkpoint(cp);

  // Header (32) | run index (4) | empty CampaignResult: label (4), twelve
  // counters (96), two empty vectors (8) | series count | three points
  // (72) | empty window rates (4) | PB/FB sizes (8) | five counters (40) |
  // MediumStats (40) | database count.
  constexpr std::size_t kSeriesCount = 32 + 4 + 4 + 96 + 8;
  constexpr std::size_t kDatabaseCount =
      kSeriesCount + 4 + 72 + 4 + 8 + 40 + 40;
  for (const auto& [at, count] :
       {std::pair{kSeriesCount, 3}, std::pair{kDatabaseCount, 2}}) {
    SCOPED_TRACE(at);
    ASSERT_EQ(bytes[at], count) << "the format moved; fix the offsets";
    std::string lying = bytes;
    for (std::size_t i = 0; i < 4; ++i) lying[at + i] = '\xff';
    reseal(lying);
    EXPECT_EQ(decode_kind(lying), sim::CheckpointErrorKind::kMalformed);
  }
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

/// Walks the field lists (sim/fields.h) and changes the `target`-th leaf,
/// counting leaves in list order; a target past the last leaf changes
/// nothing. A member marked ignored(...) counts as one leaf and is never
/// changed. Optionals must be engaged.
class LeafPerturber {
 public:
  explicit LeafPerturber(std::size_t target) : target_(target) {}

  template <class... Ts>
  void operator()(Ts&&... members) {
    (visit(members), ...);
  }

  std::size_t leaves() const { return leaves_; }
  bool hit_ignored() const { return hit_ignored_; }
  const char* hit_type() const { return hit_type_; }

 private:
  template <class T>
  bool hit() {
    if (leaves_++ != target_) return false;
    hit_type_ = typeid(T).name();
    return true;
  }
  template <std::integral T>
  void visit(T& v) {
    if (hit<T>()) v = static_cast<T>(v ^ 1);
  }
  template <class E>
    requires std::is_enum_v<E>
  void visit(E& v) {
    if (hit<E>()) {
      v = static_cast<E>(static_cast<std::underlying_type_t<E>>(v) ^ 1);
    }
  }
  void visit(double& v) {
    if (hit<double>()) v = std::nextafter(v, HUGE_VAL);
  }
  void visit(std::string& s) {
    if (hit<std::string>()) s += '~';
  }
  void visit(support::SimTime& t) {
    if (hit<support::SimTime>()) {
      t = support::SimTime::microseconds(t.us() ^ 1);
    }
  }
  void visit(dot11::MacAddress& mac) {
    if (!hit<dot11::MacAddress>()) return;
    auto octets = mac.octets();
    octets[5] ^= 1;
    mac = dot11::MacAddress(octets);
  }
  void visit(core::SsidDatabase& db) {
    auto records = db.records();
    visit(records);
    db.restore(std::move(records));
  }
  template <class T>
  void visit(std::optional<T>& v) {
    visit(v.value());
  }
  template <class T>
  void visit(std::vector<T>& v) {
    for (T& e : v) visit(e);
  }
  template <class T, std::size_t N>
  void visit(std::array<T, N>& v) {
    for (T& e : v) visit(e);
  }
  template <class T>
  void visit(sim::Ignored<T>&) {
    if (hit<sim::Ignored<T>>()) hit_ignored_ = true;
  }
  template <class T>
    requires std::is_class_v<T>
  void visit(T& s) {
    sim::fields(s, *this);
  }

  std::size_t target_;
  std::size_t leaves_ = 0;
  bool hit_ignored_ = false;
  const char* hit_type_ = "";
};

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
  const std::uint64_t base = sim::campaign_config_hash(world_->config(), runs);
  EXPECT_EQ(sim::campaign_config_hash(world_->config(), runs), base)
      << "hash must be a pure function of the configs";
  auto reseeded = runs;
  reseeded[3].run_seed = 99;
  EXPECT_NE(sim::campaign_config_hash(world_->config(), reseeded), base);
  auto longer = runs;
  longer[1].duration = support::SimTime::minutes(3);
  EXPECT_NE(sim::campaign_config_hash(world_->config(), longer), base);

  // Attacker knobs change what the run computes, so they are part of the
  // campaign's identity.
  auto untracked = runs;
  untracked[1].cityhunter.untried_tracking = false;  // a City-Hunter run
  EXPECT_NE(sim::campaign_config_hash(world_->config(), untracked), base);

  // The hash covers the medium config a run resolves to: an override equal
  // to the world's medium is the same campaign, a lossier one is not.
  auto same_medium = runs;
  same_medium[4].medium = world_->config().medium;
  EXPECT_EQ(sim::campaign_config_hash(world_->config(), same_medium), base);
  auto lossier = same_medium;
  lossier[4].medium->fault.ambient_loss = 0.3;
  EXPECT_NE(sim::campaign_config_hash(world_->config(), lossier),
            sim::campaign_config_hash(world_->config(), same_medium));

  // A warm start counts by its records, not only by its presence: two
  // databases that differ in one SSID attack differently.
  const auto one_ssid = [](const char* ssid) {
    core::SsidDatabase db;
    db.add(ssid, 5.0, core::SsidSource::kWiglePopular,
           support::SimTime::zero());
    return db;
  };
  auto warm = runs;
  warm[1].initial_database = one_ssid("warm-a");
  auto other_warm = runs;
  other_warm[1].initial_database = one_ssid("warm-b");
  EXPECT_NE(sim::campaign_config_hash(world_->config(), warm), base);
  EXPECT_NE(sim::campaign_config_hash(world_->config(), other_warm),
            sim::campaign_config_hash(world_->config(), warm));

  // An observed run's trace ring keeps its last trace_capacity records.
  auto short_trace = runs;
  short_trace[3].obs.trace_capacity = 16;  // runs[3] is observed
  EXPECT_NE(sim::campaign_config_hash(world_->config(), short_trace), base);
}

TEST_F(CheckpointCampaignTest, KeyMovesWithEveryListedField) {
  // Every optional engaged and every vector non-empty, so no leaf hides
  // behind a presence byte or an empty container.
  sim::ScenarioConfig world_config = small_scenario(11);
  world_config.city.districts = world::CityModel::default_districts();
  std::vector<sim::RunConfig> runs(1);
  sim::RunConfig& run = runs[0];
  run.slot.legit_ap = dot11::MacAddress({0x02, 0x13, 0x37, 0, 0, 1});
  run.deauth = sim::DeauthScenario{};
  run.sample_every = support::SimTime::seconds(30);
  run.medium = world_config.medium;
  core::SsidDatabase warm;
  warm.add("warm", 5.0, core::SsidSource::kWiglePopular,
           support::SimTime::zero());
  warm.record_hit("warm", 1.0, support::SimTime::seconds(1));  // last_hit
  run.initial_database = warm;

  const std::uint64_t base = sim::campaign_config_hash(world_config, runs);
  std::size_t leaves = 0;
  std::size_t ignored = 0;
  for (std::size_t k = 0;; ++k) {
    auto perturbed_world = world_config;
    auto perturbed_runs = runs;
    LeafPerturber perturb(k);
    perturb(perturbed_world, perturbed_runs);
    leaves = perturb.leaves();
    if (k >= leaves) break;
    if (perturb.hit_ignored()) {
      ++ignored;
      continue;
    }
    EXPECT_NE(sim::campaign_config_hash(perturbed_world, perturbed_runs),
              base)
        << "leaf " << k << " of " << leaves << " (" << perturb.hit_type()
        << ") does not move the key";
  }
  // spatial_grid and the fault seed, in the world's medium and in the
  // run's; the City-Hunter and MANA bases; the cancel flag.
  EXPECT_EQ(ignored, 7u);
  EXPECT_GT(leaves, 150u);
}

TEST_F(CheckpointCampaignTest, ResumeRefusesAnotherWorld) {
  // Same seed, another city: a world with more APs, or with phones that
  // take fewer probe responses, runs the same configs to other outputs, so
  // a checkpoint of this world's campaign must not resume there.
  const auto all = small_runs();
  const std::vector<sim::RunConfig> runs(all.begin(), all.begin() + 2);
  TempFile file("other-world.ckpt");
  sim::CampaignCheckpoint cp;
  cp.config_hash = sim::campaign_config_hash(world_->config(), runs);
  cp.total_runs = static_cast<std::uint32_t>(runs.size());
  std::string error;
  ASSERT_TRUE(sim::write_checkpoint(file.path(), cp, &error)) << error;

  auto more_aps = small_scenario(11);
  more_aps.aps.residential_ap_count = 900;
  auto fewer_responses = small_scenario(11);
  fewer_responses.phone.probe_response_budget = 20;
  for (const sim::ScenarioConfig& other_config : {more_aps, fewer_responses}) {
    const sim::World other(other_config);
    sim::ParallelConfig cfg{1};
    cfg.checkpoint_path = file.path();
    try {
      sim::resume_campaigns(other, runs, cfg);
      ADD_FAILURE() << "resume accepted another world's checkpoint";
    } catch (const sim::CheckpointResumeError& e) {
      EXPECT_EQ(e.error().kind, sim::CheckpointErrorKind::kConfigMismatch);
    }
  }
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
  // 6 runs, every 2 -> writes at 2, 4 and 6 completions, each run's entry
  // encoded once.
  EXPECT_EQ(stats.checkpoint_writes, 3u);
  EXPECT_EQ(stats.checkpoint_entries_encoded, runs.size());
  EXPECT_GT(stats.checkpoint_bytes, 0u);
  EXPECT_EQ(stats.checkpoint_write_failures, 0u);
  // The bytes are the last checkpoint's, the file on disk, not a sum over
  // writes whose contents depend on completion order.
  EXPECT_EQ(stats.checkpoint_bytes, std::filesystem::file_size(file.path()));

  // The final file on disk holds every run, verbatim.
  auto loaded = sim::load_checkpoint(
      file.path(), sim::campaign_config_hash(world_->config(), runs));
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
  partial.config_hash = sim::campaign_config_hash(world_->config(), runs);
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
    // 3 restored and 3 completed entries, each encoded once.
    EXPECT_EQ(stats.checkpoint_entries_encoded, runs.size());
    expect_same_bytes(uninterrupted, resumed);
  }
}

TEST_F(CheckpointCampaignTest, ResumeRefusesWrongCampaign) {
  TempFile file("wrong.ckpt");
  const auto runs = small_runs();
  sim::CampaignCheckpoint cp;
  cp.config_hash = sim::campaign_config_hash(world_->config(), runs) ^ 0xdead;
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
  cp.config_hash = sim::campaign_config_hash(world_->config(), runs);
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
