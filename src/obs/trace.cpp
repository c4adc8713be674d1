#include "obs/trace.h"

#include <ostream>
#include <stdexcept>

namespace cityhunter::obs {

const char* to_string(Category c) {
  switch (c) {
    case Category::kQueue: return "queue";
    case Category::kMedium: return "medium";
    case Category::kFault: return "fault";
    case Category::kAttacker: return "attacker";
    case Category::kSim: return "sim";
  }
  return "?";
}

const char* to_string(Event e) {
  switch (e) {
    case Event::kTransmit: return "transmit";
    case Event::kDeliver: return "deliver";
    case Event::kRetry: return "retry";
    case Event::kDropErasure: return "drop-erasure";
    case Event::kDropCollision: return "drop-collision";
    case Event::kDropCrcReject: return "drop-crc-reject";
    case Event::kScanWindowFill: return "scan-window-fill";
    case Event::kPbResize: return "pb-resize";
    case Event::kGhostPromotion: return "ghost-promotion";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : ring_(capacity), capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("TraceBuffer: capacity must be positive");
  }
}

std::vector<TraceRecord> TraceBuffer::chronological() const {
  std::vector<TraceRecord> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest retained record sits at total_ % capacity_ once the ring has
  // wrapped; before that the ring is a plain prefix.
  const std::size_t start =
      total_ < capacity_ ? 0 : static_cast<std::size_t>(total_ % capacity_);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % static_cast<std::size_t>(capacity_)]);
  }
  return out;
}

namespace {

constexpr char kHex[] = "0123456789abcdef";

void append_u_escape(unsigned char byte, std::string& out) {
  out += "\\u00";
  out += kHex[byte >> 4];
  out += kHex[byte & 0xf];
}

/// Length of the well-formed UTF-8 sequence starting at raw[i], or 0 when
/// the byte opens no valid sequence (continuation checks included; overlong
/// and surrogate encodings are not distinguished — they still render, which
/// is enough for a log sink).
std::size_t utf8_run(std::string_view raw, std::size_t i) {
  const auto byte = static_cast<unsigned char>(raw[i]);
  std::size_t len;
  if (byte < 0x80) return 1;
  if ((byte & 0xe0) == 0xc0) len = 2;
  else if ((byte & 0xf0) == 0xe0) len = 3;
  else if ((byte & 0xf8) == 0xf0) len = 4;
  else return 0;  // stray continuation or invalid lead byte
  if (i + len > raw.size()) return 0;  // truncated sequence
  for (std::size_t k = 1; k < len; ++k) {
    if ((static_cast<unsigned char>(raw[i + k]) & 0xc0) != 0x80) return 0;
  }
  return len;
}

}  // namespace

void json_escape(std::string_view raw, std::string& out) {
  for (std::size_t i = 0; i < raw.size();) {
    const char c = raw[i];
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"') {
      out += "\\\"";
      ++i;
    } else if (c == '\\') {
      out += "\\\\";
      ++i;
    } else if (byte < 0x20) {
      // Control bytes — \n and friends included; uniform \u00XX keeps the
      // escaper table-free and the output still round-trips.
      append_u_escape(byte, out);
      ++i;
    } else if (byte < 0x80) {
      out += c;
      ++i;
    } else if (const std::size_t len = utf8_run(raw, i); len > 0) {
      out.append(raw.substr(i, len));
      i += len;
    } else {
      out += "\xef\xbf\xbd";  // U+FFFD REPLACEMENT CHARACTER
      ++i;
    }
  }
}

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  json_escape(raw, out);
  return out;
}

namespace {

void write_record_fields(std::ostream& os, const TraceRecord& r) {
  os << "\"ts\":" << r.time_us << ",\"seq\":" << r.seq << ",\"cat\":\""
     << to_string(r.category) << "\",\"ev\":\"" << to_string(r.event)
     << "\",\"a\":" << r.a << ",\"b\":" << r.b;
}

}  // namespace

void write_jsonl(std::ostream& os, std::span<const TraceStream> streams) {
  for (const TraceStream& s : streams) {
    for (const TraceRecord& r : s.records) {
      os << '{';
      write_record_fields(os, r);
      os << ",\"pid\":" << s.pid << "}\n";
    }
  }
}

void write_chrome_trace(std::ostream& os,
                        std::span<const TraceStream> streams) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ',';
    first = false;
    os << '\n';
  };
  for (const TraceStream& s : streams) {
    // Process metadata: name each run so the Perfetto sidebar reads
    // "run-3 (canteen)" instead of a bare pid.
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << s.pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(s.name) << "\"}}";
    for (int tid = 0; tid <= static_cast<int>(Category::kSim); ++tid) {
      sep();
      os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << s.pid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
         << to_string(static_cast<Category>(tid)) << "\"}}";
    }
    for (const TraceRecord& r : s.records) {
      sep();
      // Instant events, thread-scoped: one dot per record on the emitting
      // category's track at its sim-time microsecond.
      os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"" << to_string(r.event)
         << "\",\"pid\":" << s.pid
         << ",\"tid\":" << static_cast<int>(r.category) << ',';
      write_record_fields(os, r);
      os << '}';
    }
  }
  os << "\n]}\n";
}

}  // namespace cityhunter::obs
