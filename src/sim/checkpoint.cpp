#include "sim/checkpoint.h"

#include <array>
#include <bit>
#include <concepts>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "dot11/crc32.h"
#include "sim/fields.h"
#include "support/atomic_file.h"

namespace cityhunter::sim {
namespace {

// --- the list codec -------------------------------------------------------
//
// Explicit little-endian regardless of host order, so a checkpoint written
// on one machine resumes on another. Every integer goes out at its own
// width, an enum at its underlying type's, a double as its IEEE-754 bit
// pattern (exact round trip, which byte-identical resume depends on), a
// string or vector behind a u32 count, an optional behind a presence byte
// and a fixed-size array without a count. Any other struct goes out
// through its field list (sim/fields.h).

static_assert(sizeof(std::size_t) == 8, "the format stores size_t in 8 bytes");

/// Appends the bytes of every member it is handed to `out`, skipping the
/// members marked ignored(...).
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  template <class... Ts>
  void operator()(const Ts&... members) {
    (put(members), ...);
  }

 private:
  template <std::integral T>
  void put(const T& v) {
    const auto bits = static_cast<std::uint64_t>(v);
    char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>(bits >> (8 * i));
    }
    out_.append(bytes, sizeof(T));
  }
  template <class E>
    requires std::is_enum_v<E>
  void put(const E& v) {
    put(static_cast<std::underlying_type_t<E>>(v));
  }
  void put(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void put(const std::string& s) {
    put(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  void put(support::SimTime t) { put(t.us()); }
  void put(const dot11::MacAddress& mac) { put(mac.octets()); }
  void put(const core::SsidDatabase& db) { put(db.records()); }
  template <class T>
  void put(const std::optional<T>& v) {
    put(v.has_value());
    if (v) put(*v);
  }
  template <class T>
  void put(const std::vector<T>& v) {
    put(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) put(e);
  }
  template <class T, std::size_t N>
  void put(const std::array<T, N>& v) {
    for (const T& e : v) put(e);
  }
  template <class T>
  void put(const Ignored<T>&) {}
  template <class T>
    requires std::is_class_v<T>
  void put(const T& s) {
    fields(s, *this);
  }

  std::string& out_;
};

/// Reads back, in place, what Writer wrote. Bounds-checked: an overrun, or
/// a count that the remaining bytes cannot hold, latches fail() before
/// anything is sized by it, and every later read leaves its target zero,
/// so a decoder parses straight through and tests fail() once.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <class... Ts>
  void operator()(Ts&... members) {
    (get(members), ...);
  }

  bool fail() const { return fail_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  bool require(std::size_t n) {
    if (remaining() < n) fail_ = true;
    return !fail_;
  }
  template <std::integral T>
  void get(T& v) {
    std::uint64_t bits = 0;
    if (require(sizeof(T))) {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        bits |= std::uint64_t{static_cast<std::uint8_t>(bytes_[pos_++])}
                << (8 * i);
      }
    }
    v = static_cast<T>(bits);
  }
  template <class E>
    requires std::is_enum_v<E>
  void get(E& v) {
    std::underlying_type_t<E> raw = 0;
    get(raw);
    v = static_cast<E>(raw);
  }
  void get(double& v) {
    std::uint64_t bits = 0;
    get(bits);
    v = std::bit_cast<double>(bits);
  }
  void get(std::string& s) {
    std::uint32_t n = 0;
    get(n);
    if (!require(n)) return;
    s.assign(bytes_.substr(pos_, n));
    pos_ += n;
  }
  void get(support::SimTime& t) {
    std::int64_t us = 0;
    get(us);
    t = support::SimTime::microseconds(us);
  }
  void get(core::SsidDatabase& db) {
    std::vector<core::SsidRecord> records;
    get(records);
    db.restore(std::move(records));
  }
  template <class T>
  void get(std::optional<T>& v) {
    bool engaged = false;
    get(engaged);
    if (engaged) get(v.emplace());
  }
  template <class T>
  void get(std::vector<T>& v) {
    std::uint32_t n = 0;
    get(n);
    // Every element takes at least one byte, so a larger count is a lie.
    if (!require(n)) return;
    v.resize(n);
    for (T& e : v) get(e);
  }
  template <class T>
    requires std::is_class_v<T>
  void get(T& s) {
    fields(s, *this);
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

constexpr char kMagic[4] = {'C', 'H', 'K', 'P'};
// magic + version + total_length + config_hash + total_runs + count
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kCrcSize = 4;

std::uint32_t crc_of(std::string_view bytes) {
  return dot11::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

CheckpointError make_error(CheckpointErrorKind kind, std::string message) {
  CheckpointError e;
  e.kind = kind;
  e.message = std::move(message);
  return e;
}

}  // namespace

const char* to_string(CheckpointErrorKind k) {
  switch (k) {
    case CheckpointErrorKind::kIoError: return "io-error";
    case CheckpointErrorKind::kTruncated: return "truncated";
    case CheckpointErrorKind::kBadMagic: return "bad-magic";
    case CheckpointErrorKind::kBadVersion: return "bad-version";
    case CheckpointErrorKind::kCrcMismatch: return "crc-mismatch";
    case CheckpointErrorKind::kConfigMismatch: return "config-mismatch";
    case CheckpointErrorKind::kMalformed: return "malformed";
  }
  return "?";
}

std::string CheckpointError::str() const {
  std::string out = to_string(kind);
  out += ": ";
  out += message;
  return out;
}

std::uint64_t campaign_config_hash(const ScenarioConfig& world_config,
                                   std::span<const RunConfig> runs) {
  std::string canon;
  Writer writer(canon);
  writer(world_config, static_cast<std::uint32_t>(runs.size()));
  for (RunConfig run : runs) {
    // The medium the run resolves to, by VenueRun's own rule: an override
    // equal to the world's medium is the same campaign.
    if (!run.medium) run.medium = world_config.medium;
    writer(run);
  }

  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const char c : canon) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

std::string run_output_bytes(const RunOutput& run) {
  // Zero the wallclock on a copy: every other field is a pure function of
  // (world, config), but the phase profile holds steady_clock readings that
  // legitimately differ between an original and a recomputed run.
  RunOutput canon = run;
  canon.phases = PhaseProfile{};
  std::string out;
  Writer writer(out);
  writer(canon);
  return out;
}

std::string encode_checkpoint_entry(std::uint32_t index,
                                    const RunOutput& run) {
  std::string out;
  Writer writer(out);
  writer(index, run);
  return out;
}

std::string encode_checkpoint(const CampaignCheckpoint& cp) {
  std::vector<std::string> entries;
  entries.reserve(cp.completed.size());
  for (const CompletedRun& run : cp.completed) {
    entries.push_back(encode_checkpoint_entry(run.index, run.output));
  }
  const std::vector<std::string_view> views(entries.begin(), entries.end());
  return encode_checkpoint(cp.config_hash, cp.total_runs, views);
}

std::string encode_checkpoint(std::uint64_t config_hash,
                              std::uint32_t total_runs,
                              std::span<const std::string_view> entries) {
  std::size_t payload = 0;
  for (const std::string_view e : entries) payload += e.size();
  std::string out;
  out.reserve(kHeaderSize + payload + kCrcSize);
  out.append(kMagic, sizeof(kMagic));
  Writer writer(out);
  // total_length is a placeholder, patched below.
  writer(CampaignCheckpoint::kFormatVersion, std::uint64_t{0}, config_hash,
         total_runs, static_cast<std::uint32_t>(entries.size()));
  for (const std::string_view e : entries) out.append(e);
  // Patch the real total length (header + payload + CRC trailer) into the
  // header, then seal with the CRC over everything before it. The length
  // field lets decoders distinguish "file got cut short" from "bits
  // flipped" — truncation alters the size, bit rot alters the CRC.
  const std::uint64_t total = out.size() + kCrcSize;
  for (int i = 0; i < 8; ++i) {
    out[8 + i] = static_cast<char>((total >> (8 * i)) & 0xff);
  }
  writer(crc_of(out));
  return out;
}

std::variant<CampaignCheckpoint, CheckpointError> decode_checkpoint(
    std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic)) {
    return make_error(CheckpointErrorKind::kTruncated,
                      "file shorter than the magic header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return make_error(CheckpointErrorKind::kBadMagic,
                      "not a campaign checkpoint (bad magic)");
  }
  if (bytes.size() < kHeaderSize) {
    return make_error(CheckpointErrorKind::kTruncated,
                      "file shorter than the checkpoint header");
  }
  Reader header(bytes.substr(sizeof(kMagic)));
  std::uint32_t version = 0;
  std::uint64_t total_length = 0;
  header(version, total_length);
  if (version != CampaignCheckpoint::kFormatVersion) {
    std::ostringstream oss;
    oss << "format version " << version << ", expected "
        << CampaignCheckpoint::kFormatVersion;
    return make_error(CheckpointErrorKind::kBadVersion, oss.str());
  }
  if (bytes.size() != total_length) {
    std::ostringstream oss;
    oss << "file holds " << bytes.size() << " bytes, header promises "
        << total_length;
    return make_error(bytes.size() < total_length
                          ? CheckpointErrorKind::kTruncated
                          : CheckpointErrorKind::kMalformed,
                      oss.str());
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kCrcSize);
  Reader trailer(bytes.substr(bytes.size() - kCrcSize));
  std::uint32_t want_crc = 0;
  trailer(want_crc);
  const std::uint32_t got_crc = crc_of(body);
  if (want_crc != got_crc) {
    std::ostringstream oss;
    oss << "payload CRC " << std::hex << got_crc << " != stored " << want_crc;
    return make_error(CheckpointErrorKind::kCrcMismatch, oss.str());
  }

  CampaignCheckpoint cp;
  std::uint32_t count = 0;
  header(cp.config_hash, cp.total_runs, count);
  Reader payload(body.substr(kHeaderSize));
  std::uint64_t prev_index = 0;
  for (std::uint32_t i = 0; i < count && !payload.fail(); ++i) {
    CompletedRun run;
    payload(run.index, run.output);
    if (run.index >= cp.total_runs) {
      return make_error(CheckpointErrorKind::kMalformed,
                        "completed run index out of range");
    }
    if (i > 0 && run.index <= prev_index) {
      return make_error(CheckpointErrorKind::kMalformed,
                        "completed run indices not strictly ascending");
    }
    prev_index = run.index;
    cp.completed.push_back(std::move(run));
  }
  if (payload.fail() || payload.remaining() != 0) {
    return make_error(CheckpointErrorKind::kMalformed,
                      "payload structure disagrees with its own counts");
  }
  return cp;
}

bool write_checkpoint(const std::string& path, const CampaignCheckpoint& cp,
                      std::string* error) {
  return support::write_file_atomic(path, encode_checkpoint(cp), error);
}

std::variant<CampaignCheckpoint, CheckpointError> load_checkpoint(
    const std::string& path, std::uint64_t expected_config_hash) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(CheckpointErrorKind::kIoError,
                      "cannot open checkpoint file " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return make_error(CheckpointErrorKind::kIoError,
                      "read failed for checkpoint file " + path);
  }
  const std::string bytes = buf.str();
  auto decoded = decode_checkpoint(bytes);
  if (const auto* err = std::get_if<CheckpointError>(&decoded)) {
    CheckpointError e = *err;
    e.message += " (" + path + ")";
    return e;
  }
  CampaignCheckpoint cp = std::move(std::get<CampaignCheckpoint>(decoded));
  if (cp.config_hash != expected_config_hash) {
    std::ostringstream oss;
    oss << "checkpoint belongs to campaign " << std::hex << cp.config_hash
        << ", this campaign is " << expected_config_hash << " (" << path
        << ")";
    return make_error(CheckpointErrorKind::kConfigMismatch, oss.str());
  }
  return cp;
}

}  // namespace cityhunter::sim
