// Crash-safe campaign checkpoints.
//
// A multi-hour campaign must survive the process dying under it. Because
// run_campaign() is pure in (world config, RunConfig), the minimal
// sufficient snapshot of campaign progress is tiny: WHICH runs have
// completed and WHAT they produced. No simulator state is saved — a resumed
// campaign simply re-derives every missing run from its seed, so the final
// output vector is bit-identical to an uninterrupted campaign
// (tests/checkpoint_test asserts this, byte for byte).
//
// On-disk format (little-endian throughout):
//
//   magic "CHKP" | u32 version | u64 total_length | u64 config_hash |
//   u32 total_runs | u32 completed_count | completed entries... | u32 crc32
//
// where each entry is `u32 run_index | serialized RunOutput` and the CRC-32
// (the same dot11/crc32 the 802.11 FCS path uses) covers every byte before
// it. A RunOutput is serialized by walking its field list (sim/fields.h):
// one list, walked by the encoder and the decoder, and the config hash
// walks the lists of the world config and every run. Files are written via
// support::write_file_atomic (tmp + fsync + rename), so a reader sees
// either the previous complete checkpoint or the new complete checkpoint —
// never a torn hybrid. Decoding rejects damage with a distinct, actionable
// error per failure mode (truncation, bit flip, version skew, wrong
// campaign, counts the payload cannot hold); a checkpoint is never
// partially applied.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sim/scenario.h"

namespace cityhunter::sim {

enum class CheckpointErrorKind : std::uint8_t {
  kIoError = 0,          // open/read failed (missing file, permissions)
  kTruncated = 1,        // byte count disagrees with the header's length
  kBadMagic = 2,         // not a checkpoint file at all
  kBadVersion = 3,       // produced by an incompatible format revision
  kCrcMismatch = 4,      // bit damage: payload fails the CRC-32
  kConfigMismatch = 5,   // checkpoint belongs to a different campaign
  kMalformed = 6,        // structurally inconsistent despite a valid CRC
};

const char* to_string(CheckpointErrorKind k);

struct CheckpointError {
  CheckpointErrorKind kind = CheckpointErrorKind::kIoError;
  std::string message;

  /// "kind: message" for banners and exception texts.
  std::string str() const;
};

struct CompletedRun {
  std::uint32_t index = 0;  // position in the campaign's RunConfig span
  RunOutput output;
};

struct CampaignCheckpoint {
  /// 2: the config hash covers the resolved medium and attacker configs.
  /// A version-1 file fails as kBadVersion, not as a foreign campaign.
  /// 3: unicast frames reach only their addressee and monitors, and lossy
  /// draws are keyed per link, so version-2 runs hold other delivery counts
  /// and loss patterns for the same config hash; they fail as kBadVersion.
  /// 4: the pair pathloss cache is gone, so an observed run no longer
  /// carries its hit/miss counters; a version-3 file would resume runs that
  /// carry them next to fresh runs that do not.
  /// 5: phones register as stations and no longer receive other phones'
  /// broadcast probe requests, so version-4 runs hold larger delivery and
  /// per-receiver loss counts for the same config hash.
  /// 6: the sender's collision, corruption, backoff and bit-flip decisions
  /// are keyed hash draws, no longer a seeded stream's, so a version-5
  /// lossy run holds other outcomes for the same config hash.
  /// 7: metrics snapshots carry no wallclock timer points, so an observed
  /// version-6 run holds three phase.* points a fresh run does not.
  /// 8: the config hash covers the warm-start database's records and the
  /// trace capacity; a version-7 file may hold runs of a campaign that
  /// differs in either, and fails as kBadVersion.
  /// 9: the config hash covers the whole world config, not only its seed,
  /// and a run's error no longer carries an attempt count; a version-8 file
  /// may hold runs of another world, and fails as kBadVersion.
  static constexpr std::uint32_t kFormatVersion = 9;

  /// campaign_config_hash() of the (world config, runs) the checkpoint
  /// belongs to.
  std::uint64_t config_hash = 0;
  /// Size of the campaign's RunConfig span — a resume against a different
  /// run count is rejected even if the hash were to collide.
  std::uint32_t total_runs = 0;
  /// Completed runs in ascending index order.
  std::vector<CompletedRun> completed;
};

/// Digest of everything that identifies a campaign: the world config and
/// every run config, walked through their field lists (sim/fields.h), each
/// run with the medium it resolves to. Only members marked ignored(...)
/// are left out. FNV-1a over the encoded bytes — a resume guard against
/// feeding a checkpoint to the wrong campaign, not a cryptographic
/// commitment.
std::uint64_t campaign_config_hash(const ScenarioConfig& world_config,
                                   std::span<const RunConfig> runs);

/// The canonical DETERMINISTIC byte representation of one RunOutput: its
/// checkpoint serialization, which walks every field of the RunOutput list
/// (attacker database, metrics/trace harvest and structured error
/// included), with the wallclock — the PhaseProfile, the only wallclock a
/// RunOutput carries — zeroed. This is the unit of byte-identity for
/// resumed == uninterrupted assertions; the phase times are steady_clock
/// measurements that legitimately differ between an original and a
/// recomputed run, by design.
std::string run_output_bytes(const RunOutput& run);

/// Encode to the on-disk byte format (header + entries + CRC trailer).
std::string encode_checkpoint(const CampaignCheckpoint& cp);

/// One completed run's entry in that format: its index, then its
/// serialized RunOutput. A campaign encodes each run once, when it
/// completes, and every later checkpoint reuses the entry.
std::string encode_checkpoint_entry(std::uint32_t index, const RunOutput& run);

/// encode_checkpoint from entries already encoded, in ascending index
/// order: the same bytes as encoding the runs they hold.
std::string encode_checkpoint(std::uint64_t config_hash,
                              std::uint32_t total_runs,
                              std::span<const std::string_view> entries);

/// Decode and fully validate bytes. Returns the checkpoint or the first
/// distinct failure (truncation / magic / version / CRC / structure). A
/// count that the remaining bytes cannot hold is kMalformed, caught before
/// anything is sized by it.
std::variant<CampaignCheckpoint, CheckpointError> decode_checkpoint(
    std::string_view bytes);

/// Atomically (re)write the checkpoint file. Returns false and fills
/// `error` on I/O failure; the previous checkpoint, if any, is untouched.
bool write_checkpoint(const std::string& path, const CampaignCheckpoint& cp,
                      std::string* error = nullptr);

/// Read + decode + validate against the campaign identified by
/// `expected_config_hash`. Every failure mode yields its distinct kind;
/// there is no partial success.
std::variant<CampaignCheckpoint, CheckpointError> load_checkpoint(
    const std::string& path, std::uint64_t expected_config_hash);

}  // namespace cityhunter::sim
