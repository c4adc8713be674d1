#include "sim/checkpoint.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "dot11/crc32.h"
#include "support/atomic_file.h"

namespace cityhunter::sim {
namespace {

// --- little-endian byte building/parsing -------------------------------
//
// The format is explicit-width little-endian regardless of host order so a
// checkpoint written on one machine resumes on another. Doubles travel as
// their IEEE-754 bit pattern (bit_cast) — exact round-trip, which the
// byte-identical resume guarantee depends on.

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked cursor over the payload. Any overrun latches fail() and
/// every later read returns a zero value, so decoders can parse straight
/// through and test failure once at the end (-> kMalformed).
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (!require(4)) return 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes_[pos_++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (!require(8)) return 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes_[pos_++]))
           << (8 * i);
    }
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    if (!require(n)) return {};
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  bool fail() const { return fail_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  bool require(std::size_t n) {
    if (fail_ || bytes_.size() - pos_ < n) {
      fail_ = true;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

// --- RunOutput field-by-field ------------------------------------------

void put_sim_time(std::string& out, support::SimTime t) { put_i64(out, t.us()); }

support::SimTime get_sim_time(ByteReader& r) {
  return support::SimTime::microseconds(r.i64());
}

void put_campaign_result(std::string& out, const stats::CampaignResult& r) {
  put_str(out, r.label);
  put_u64(out, r.total_clients);
  put_u64(out, r.direct_clients);
  put_u64(out, r.broadcast_clients);
  put_u64(out, r.direct_connected);
  put_u64(out, r.broadcast_connected);
  put_u64(out, r.hits_from_wigle);
  put_u64(out, r.hits_from_direct_db);
  put_u64(out, r.hits_from_carrier_seed);
  put_u64(out, r.hits_via_popularity);
  put_u64(out, r.hits_via_popularity_ghost);
  put_u64(out, r.hits_via_freshness);
  put_u64(out, r.hits_via_freshness_ghost);
  put_u32(out, static_cast<std::uint32_t>(r.ssids_sent_connected.size()));
  for (const int v : r.ssids_sent_connected) put_i32(out, v);
  put_u32(out, static_cast<std::uint32_t>(r.ssids_sent_all_broadcast.size()));
  for (const int v : r.ssids_sent_all_broadcast) put_i32(out, v);
}

stats::CampaignResult get_campaign_result(ByteReader& r) {
  stats::CampaignResult out;
  out.label = r.str();
  out.total_clients = r.u64();
  out.direct_clients = r.u64();
  out.broadcast_clients = r.u64();
  out.direct_connected = r.u64();
  out.broadcast_connected = r.u64();
  out.hits_from_wigle = r.u64();
  out.hits_from_direct_db = r.u64();
  out.hits_from_carrier_seed = r.u64();
  out.hits_via_popularity = r.u64();
  out.hits_via_popularity_ghost = r.u64();
  out.hits_via_freshness = r.u64();
  out.hits_via_freshness_ghost = r.u64();
  const std::uint32_t nc = r.u32();
  if (!r.fail()) {
    out.ssids_sent_connected.reserve(nc);
    for (std::uint32_t i = 0; i < nc && !r.fail(); ++i) {
      out.ssids_sent_connected.push_back(r.i32());
    }
  }
  const std::uint32_t nb = r.u32();
  if (!r.fail()) {
    out.ssids_sent_all_broadcast.reserve(nb);
    for (std::uint32_t i = 0; i < nb && !r.fail(); ++i) {
      out.ssids_sent_all_broadcast.push_back(r.i32());
    }
  }
  return out;
}

void put_database(std::string& out, const core::SsidDatabase& db) {
  const auto& records = db.records();
  put_u32(out, static_cast<std::uint32_t>(records.size()));
  for (const auto& rec : records) {
    put_str(out, rec.ssid);
    put_f64(out, rec.weight);
    put_u8(out, static_cast<std::uint8_t>(rec.source));
    put_i32(out, rec.hits);
    put_u8(out, rec.last_hit ? 1 : 0);
    if (rec.last_hit) put_sim_time(out, *rec.last_hit);
    put_sim_time(out, rec.added);
    put_u64(out, rec.insertion_order);
  }
}

core::SsidDatabase get_database(ByteReader& r) {
  const std::uint32_t n = r.u32();
  std::vector<core::SsidRecord> records;
  if (!r.fail()) records.reserve(n);
  for (std::uint32_t i = 0; i < n && !r.fail(); ++i) {
    core::SsidRecord rec;
    rec.ssid = r.str();
    rec.weight = r.f64();
    rec.source = static_cast<core::SsidSource>(r.u8());
    rec.hits = r.i32();
    if (r.u8()) rec.last_hit = get_sim_time(r);
    rec.added = get_sim_time(r);
    rec.insertion_order = r.u64();
    records.push_back(std::move(rec));
  }
  core::SsidDatabase db;
  db.restore(std::move(records));
  return db;
}

RunOutput get_run_output(ByteReader& r) {
  RunOutput out;
  out.result = get_campaign_result(r);
  const std::uint32_t ns = r.u32();
  if (!r.fail()) out.series.reserve(ns);
  for (std::uint32_t i = 0; i < ns && !r.fail(); ++i) {
    SeriesPoint p;
    p.time = get_sim_time(r);
    p.db_size = r.u64();
    p.broadcast_connected = r.u64();
    out.series.push_back(p);
  }
  const std::uint32_t nw = r.u32();
  if (!r.fail()) out.window_rates.reserve(nw);
  for (std::uint32_t i = 0; i < nw && !r.fail(); ++i) {
    stats::WindowRate w;
    w.start = get_sim_time(r);
    w.broadcast_clients = r.u64();
    w.broadcast_connected = r.u64();
    out.window_rates.push_back(w);
  }
  out.final_pb_size = r.i32();
  out.final_fb_size = r.i32();
  out.db_final_size = r.u64();
  out.db_from_direct = r.u64();
  out.deauths_sent = r.u64();
  out.frames_transmitted = r.u64();
  out.frames_delivered = r.u64();
  out.medium_stats.transmissions = r.u64();
  out.medium_stats.deliveries = r.u64();
  out.medium_stats.frames_lost = r.u64();
  out.medium_stats.frames_corrupted = r.u64();
  out.medium_stats.retries = r.u64();
  out.database = get_database(r);
  out.queue_stats.scheduled = r.u64();
  out.queue_stats.processed = r.u64();
  out.queue_stats.peak_pending = r.u64();
  out.queue_stats.slab_slots = r.u64();
  out.queue_stats.slab_reuses = r.u64();
  out.phases.setup_s = r.f64();
  out.phases.sim_s = r.f64();
  out.phases.analysis_s = r.f64();
  const std::uint32_t nm = r.u32();
  if (!r.fail()) out.metrics.points.reserve(nm);
  for (std::uint32_t i = 0; i < nm && !r.fail(); ++i) {
    obs::MetricPoint p;
    p.name = r.str();
    p.kind = static_cast<obs::MetricKind>(r.u8());
    p.count = r.u64();
    p.value = r.f64();
    p.min = r.f64();
    p.max = r.f64();
    out.metrics.points.push_back(std::move(p));
  }
  const std::uint32_t nt = r.u32();
  if (!r.fail()) out.trace.reserve(nt);
  for (std::uint32_t i = 0; i < nt && !r.fail(); ++i) {
    obs::TraceRecord t;
    t.time_us = r.i64();
    t.seq = r.u64();
    t.a = r.u64();
    t.b = r.u64();
    t.category = static_cast<obs::Category>(r.u8());
    t.event = static_cast<obs::Event>(r.u8());
    out.trace.push_back(t);
  }
  out.trace_dropped = r.u64();
  out.error.kind = static_cast<RunErrorKind>(r.u8());
  out.error.message = r.str();
  out.error.attempts = r.u32();
  return out;
}

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

std::uint64_t campaign_config_hash(const World& world,
                                   std::span<const RunConfig> runs) {
  // Canonical byte string of the behavioural identity of the campaign,
  // digested with FNV-1a. Wallclock-only knobs (deadline, retries) are
  // included too: two campaigns that differ in supervision limits may fail
  // differently, so their checkpoints should not be interchangeable.
  std::string canon;
  put_u64(canon, world.config().seed);
  put_u32(canon, static_cast<std::uint32_t>(runs.size()));
  for (const RunConfig& run : runs) {
    put_u8(canon, static_cast<std::uint8_t>(run.kind));
    put_u64(canon, run.run_seed);
    put_sim_time(canon, run.duration);
    const mobility::VenueConfig& v = run.venue;
    put_str(canon, v.name);
    put_u8(canon, static_cast<std::uint8_t>(v.pattern));
    put_f64(canon, v.extent_m);
    put_f64(canon, v.width_m);
    put_f64(canon, v.mean_dwell_min);
    put_f64(canon, v.dwell_sigma);
    put_f64(canon, v.mean_speed_mps);
    put_f64(canon, v.speed_sd_mps);
    put_f64(canon, v.hybrid_static_fraction);
    put_f64(canon, v.mean_scan_interval_s);
    put_f64(canon, v.group_fraction);
    for (const double w : v.group_size_weights) put_f64(canon, w);
    put_u32(canon, static_cast<std::uint32_t>(v.venue_ssids.size()));
    for (const auto& s : v.venue_ssids) put_str(canon, s);
    put_f64(canon, v.venue_regular_prob);
    for (const double c : v.hourly_clients) put_f64(canon, c);
    for (const double g : v.hourly_group_fraction) put_f64(canon, g);
    const mobility::SlotParams& slot = run.slot;
    put_f64(canon, slot.expected_clients);
    put_f64(canon, slot.group_fraction);
    put_f64(canon, slot.pre_associated_fraction);
    put_u8(canon, slot.legit_ap ? 1 : 0);
    if (slot.legit_ap) {
      for (const std::uint8_t o : slot.legit_ap->octets()) put_u8(canon, o);
    }
    put_f64(canon, slot.mac_randomizing_fraction);
    put_u8(canon, run.seed_carrier_ssids ? 1 : 0);
    put_u8(canon, run.deauth ? 1 : 0);
    if (run.deauth) {
      put_f64(canon, run.deauth->pre_associated_fraction);
      put_sim_time(canon, run.deauth->interval);
      put_u8(canon, run.deauth->enable_deauth ? 1 : 0);
    }
    put_u8(canon, run.sample_every ? 1 : 0);
    if (run.sample_every) put_sim_time(canon, *run.sample_every);
    // The medium config the run resolves to, by run_campaign's own rule.
    // Left out: spatial_grid, which cannot change results, and the fault
    // seed, which run_campaign re-keys per run.
    const medium::Medium::Config& m =
        run.medium ? *run.medium : world.config().medium;
    put_f64(canon, m.propagation.reference_loss_db);
    put_f64(canon, m.propagation.exponent);
    put_f64(canon, m.propagation.rx_sensitivity_dbm);
    put_f64(canon, m.contention_factor);
    put_f64(canon, m.mgmt_rate_mbps);
    put_u8(canon, m.pathloss_lut ? 1 : 0);  // LUT RSSI differs in low bits
    const medium::FaultModel::Config& f = m.fault;
    put_u8(canon, f.enabled ? 1 : 0);
    put_f64(canon, f.noise_floor_dbm);
    put_f64(canon, f.per_snr_mid_db);
    put_f64(canon, f.per_width_db);
    put_f64(canon, f.ambient_loss);
    put_f64(canon, f.corruption_rate);
    put_i32(canon, f.max_bit_flips);
    put_i32(canon, f.retry_limit);
    put_i32(canon, f.cw_min);
    put_i32(canon, f.cw_max);
    put_f64(canon, f.slot_time_us);
    // Attacker configs. Their `base` is left out: run_campaign overwrites it.
    const core::BufferSelectorConfig& buf = run.cityhunter.buffers;
    put_i32(canon, buf.budget);
    put_i32(canon, buf.initial_pb_size);
    put_i32(canon, buf.ghost_size);
    put_i32(canon, buf.ghost_picks);
    put_i32(canon, buf.min_buffer_size);
    put_u8(canon, buf.use_freshness ? 1 : 0);
    put_u8(canon, buf.use_ghosts ? 1 : 0);
    put_u8(canon, buf.adaptive ? 1 : 0);
    put_f64(canon, run.cityhunter.direct_initial_weight);
    put_f64(canon, run.cityhunter.direct_seen_bonus);
    put_f64(canon, run.cityhunter.hit_weight_bonus);
    put_u8(canon, run.cityhunter.untried_tracking ? 1 : 0);
    put_f64(canon, run.mana.learned_weight);
    put_i32(canon, run.mana.max_dump);
    put_i32(canon, run.wigle_seed.nearby_count);
    put_i32(canon, run.wigle_seed.popular_count);
    put_u8(canon, static_cast<std::uint8_t>(run.wigle_seed.ranking));
    put_u8(canon, run.initial_database ? 1 : 0);
    put_u8(canon, run.obs.enabled ? 1 : 0);
    put_f64(canon, run.deadline_s);
    put_u64(canon, run.max_sim_events);
    put_i32(canon, run.max_retries);
    put_u8(canon, run.chaos_hang ? 1 : 0);
    put_u8(canon, run.chaos_poison_schedule ? 1 : 0);
  }

  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const char c : canon) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

void serialize_run_output(std::string& out, const RunOutput& run) {
  put_campaign_result(out, run.result);
  put_u32(out, static_cast<std::uint32_t>(run.series.size()));
  for (const SeriesPoint& p : run.series) {
    put_sim_time(out, p.time);
    put_u64(out, p.db_size);
    put_u64(out, p.broadcast_connected);
  }
  put_u32(out, static_cast<std::uint32_t>(run.window_rates.size()));
  for (const stats::WindowRate& w : run.window_rates) {
    put_sim_time(out, w.start);
    put_u64(out, w.broadcast_clients);
    put_u64(out, w.broadcast_connected);
  }
  put_i32(out, run.final_pb_size);
  put_i32(out, run.final_fb_size);
  put_u64(out, run.db_final_size);
  put_u64(out, run.db_from_direct);
  put_u64(out, run.deauths_sent);
  put_u64(out, run.frames_transmitted);
  put_u64(out, run.frames_delivered);
  put_u64(out, run.medium_stats.transmissions);
  put_u64(out, run.medium_stats.deliveries);
  put_u64(out, run.medium_stats.frames_lost);
  put_u64(out, run.medium_stats.frames_corrupted);
  put_u64(out, run.medium_stats.retries);
  put_database(out, run.database);
  put_u64(out, run.queue_stats.scheduled);
  put_u64(out, run.queue_stats.processed);
  put_u64(out, run.queue_stats.peak_pending);
  put_u64(out, run.queue_stats.slab_slots);
  put_u64(out, run.queue_stats.slab_reuses);
  put_f64(out, run.phases.setup_s);
  put_f64(out, run.phases.sim_s);
  put_f64(out, run.phases.analysis_s);
  put_u32(out, static_cast<std::uint32_t>(run.metrics.points.size()));
  for (const obs::MetricPoint& p : run.metrics.points) {
    put_str(out, p.name);
    put_u8(out, static_cast<std::uint8_t>(p.kind));
    put_u64(out, p.count);
    put_f64(out, p.value);
    put_f64(out, p.min);
    put_f64(out, p.max);
  }
  put_u32(out, static_cast<std::uint32_t>(run.trace.size()));
  for (const obs::TraceRecord& t : run.trace) {
    put_i64(out, t.time_us);
    put_u64(out, t.seq);
    put_u64(out, t.a);
    put_u64(out, t.b);
    put_u8(out, static_cast<std::uint8_t>(t.category));
    put_u8(out, static_cast<std::uint8_t>(t.event));
  }
  put_u64(out, run.trace_dropped);
  put_u8(out, static_cast<std::uint8_t>(run.error.kind));
  put_str(out, run.error.message);
  put_u32(out, run.error.attempts);
}

std::string run_output_bytes(const RunOutput& run) {
  // Zero the wallclock on a copy: every other field is a pure function of
  // (world, config), but the phase profile holds steady_clock readings that
  // legitimately differ between an original and a recomputed run.
  RunOutput canon = run;
  canon.phases = PhaseProfile{};
  std::string out;
  serialize_run_output(out, canon);
  return out;
}

std::string encode_checkpoint_entry(std::uint32_t index,
                                    const RunOutput& run) {
  std::string out;
  put_u32(out, index);
  serialize_run_output(out, run);
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
  put_u32(out, CampaignCheckpoint::kFormatVersion);
  put_u64(out, 0);  // total_length placeholder, patched below
  put_u64(out, config_hash);
  put_u32(out, total_runs);
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const std::string_view e : entries) out.append(e);
  // Patch the real total length (header + payload + CRC trailer) into the
  // header, then seal with the CRC over everything before it. The length
  // field lets decoders distinguish "file got cut short" from "bits
  // flipped" — truncation alters the size, bit rot alters the CRC.
  const std::uint64_t total = out.size() + kCrcSize;
  for (int i = 0; i < 8; ++i) {
    out[8 + i] = static_cast<char>((total >> (8 * i)) & 0xff);
  }
  put_u32(out, crc_of(out));
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
  ByteReader header(bytes.substr(sizeof(kMagic)));
  const std::uint32_t version = header.u32();
  if (version != CampaignCheckpoint::kFormatVersion) {
    std::ostringstream oss;
    oss << "format version " << version << ", expected "
        << CampaignCheckpoint::kFormatVersion;
    return make_error(CheckpointErrorKind::kBadVersion, oss.str());
  }
  const std::uint64_t total_length = header.u64();
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
  ByteReader trailer(bytes.substr(bytes.size() - kCrcSize));
  const std::uint32_t want_crc = trailer.u32();
  const std::uint32_t got_crc = crc_of(body);
  if (want_crc != got_crc) {
    std::ostringstream oss;
    oss << "payload CRC " << std::hex << got_crc << " != stored " << want_crc;
    return make_error(CheckpointErrorKind::kCrcMismatch, oss.str());
  }

  CampaignCheckpoint cp;
  cp.config_hash = header.u64();
  cp.total_runs = header.u32();
  const std::uint32_t count = header.u32();
  ByteReader payload(body.substr(kHeaderSize));
  std::uint64_t prev_index = 0;
  for (std::uint32_t i = 0; i < count && !payload.fail(); ++i) {
    CompletedRun run;
    run.index = payload.u32();
    run.output = get_run_output(payload);
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
