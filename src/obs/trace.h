// Structured tracing: a fixed-capacity, zero-alloc ring buffer of typed
// trace records, with JSONL and Chrome/Perfetto `trace_event` sinks.
//
// Determinism contract: a record carries (sim time, deterministic per-buffer
// sequence, category, event, two payload words) — never a wall clock, a
// pointer value or a thread id. One buffer belongs to one run; merged output
// is keyed by the run's input-order index (the Chrome `pid`), so the same
// campaign traced at any worker-thread count serializes byte-identically.
//
// Hot-path contract: record() is a bounds-free array store into storage
// allocated once at construction — no branches that allocate, no locks.
// Components hold a `TraceBuffer*` that is null when observability is off;
// the disabled cost is one pointer test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/sim_time.h"

namespace cityhunter::obs {

using support::SimTime;

/// A run's observability switch. When enabled, the run keeps a trace ring
/// of `trace_capacity` records and publishes a metrics snapshot.
struct Config {
  bool enabled = false;
  /// Ring capacity per run. When the trace outgrows it, the oldest records
  /// are overwritten (TraceBuffer::dropped() counts them).
  std::size_t trace_capacity = 1 << 14;

  bool operator==(const Config&) const = default;
};

/// Subsystem that emitted a record. Doubles as the Chrome `tid`, so each
/// layer gets its own track in the Perfetto timeline.
enum class Category : std::uint8_t {
  kQueue = 0,
  kMedium = 1,
  kFault = 2,
  kAttacker = 3,
  kSim = 4,
};

const char* to_string(Category c);

/// What happened. Payload words `a`/`b` per event:
///   kTransmit        a = tx radio id,   b = wire bytes
///   kDeliver         a = rx radio id,   b = tx radio id
///   kRetry           a = tx radio id,   b = attempt number (1-based)
///   kDropErasure     a = rx radio id,   b = tx radio id (receiver-side PER/
///                                           collision draw erased the frame)
///   kDropCollision   a = tx radio id,   b = retries spent (retry budget
///                                           exhausted on a collision)
///   kDropCrcReject   a = tx radio id,   b = wire bytes (bit damage kept —
///                                           every receiver's FCS rejects)
///   kScanWindowFill  a = SSIDs chosen,  b = response budget
///   kPbResize        a = new PB size,   b = new FB size
///   kGhostPromotion  a = 1 popularity-ghost hit / 2 freshness-ghost hit
enum class Event : std::uint8_t {
  kTransmit = 0,
  kDeliver = 1,
  kRetry = 2,
  kDropErasure = 3,
  kDropCollision = 4,
  kDropCrcReject = 5,
  kScanWindowFill = 6,
  kPbResize = 7,
  kGhostPromotion = 8,
};

const char* to_string(Event e);

struct TraceRecord {
  std::int64_t time_us = 0;  // sim time, never wall clock
  std::uint64_t seq = 0;     // per-buffer, assigned in record() order
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  Category category = Category::kSim;
  Event event = Event::kTransmit;

  bool operator==(const TraceRecord&) const = default;
};

/// Fixed-capacity ring of trace records. When full, the oldest record is
/// overwritten and dropped() grows — recent history wins, and the hot path
/// never pays for the overflow.
class TraceBuffer {
 public:
  /// Storage is allocated here, once; capacity must be positive.
  explicit TraceBuffer(std::size_t capacity);

  /// Append one record. Zero heap allocations, noexcept by construction.
  void record(SimTime t, Category c, Event e, std::uint64_t a = 0,
              std::uint64_t b = 0) noexcept {
    TraceRecord& r = ring_[static_cast<std::size_t>(total_ % capacity_)];
    r.time_us = t.us();
    r.seq = total_;
    r.a = a;
    r.b = b;
    r.category = c;
    r.event = e;
    ++total_;
  }

  std::size_t capacity() const { return capacity_; }
  /// Records currently retained (== min(total_recorded, capacity)).
  std::size_t size() const {
    return total_ < capacity_ ? static_cast<std::size_t>(total_) : capacity_;
  }
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const {
    return total_ < capacity_ ? 0 : total_ - capacity_;
  }

  /// Retained records, oldest first. Allocates the result vector — cold
  /// path, called once per run when the buffer is harvested.
  std::vector<TraceRecord> chronological() const;

 private:
  std::vector<TraceRecord> ring_;
  std::uint64_t capacity_;  // u64 so total_ % capacity_ avoids a narrowing
  std::uint64_t total_ = 0;
};

/// Append `raw` to `out` as the body of a JSON string literal: quotes and
/// backslashes escaped, control bytes as \u00XX, well-formed UTF-8 copied
/// verbatim, and every invalid UTF-8 byte replaced by U+FFFD — a hostile
/// SSID (the attacker reads them off the air) can never break the sink's
/// JSON.
void json_escape(std::string_view raw, std::string& out);
std::string json_escape(std::string_view raw);

/// One traced run in a merged export: `pid` is the run's input-order index
/// (stable across thread counts), `name` labels the Chrome process.
struct TraceStream {
  int pid = 0;
  std::string name;
  std::span<const TraceRecord> records;
};

/// One JSON object per line per record:
///   {"ts":..,"seq":..,"cat":"medium","ev":"transmit","a":..,"b":..,"pid":0}
void write_jsonl(std::ostream& os, std::span<const TraceStream> streams);

/// Chrome/Perfetto `trace_event` JSON: instant events on one track per
/// category, one process per run, loadable in chrome://tracing or
/// ui.perfetto.dev. Timestamps are sim-time microseconds.
void write_chrome_trace(std::ostream& os, std::span<const TraceStream> streams);

}  // namespace cityhunter::obs
