// Observability layer tests (ctest label: obs; also in the asan/tsan sets).
//
// Covers the determinism contracts the layer is built on: ring wraparound
// keeps the most recent records, hostile SSIDs cannot break the JSON sinks,
// the Chrome trace serialization is byte-stable (golden fixture), and the
// metrics/trace harvest of a campaign is identical at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel.h"
#include "small_world.h"

namespace cityhunter {
namespace {

using obs::Category;
using obs::Event;
using obs::TraceBuffer;
using obs::TraceRecord;
using obs::TraceStream;
using support::SimTime;

// --- TraceBuffer ---

TEST(TraceBuffer, FillsAsAPlainPrefixBeforeWrapping) {
  TraceBuffer buf(8);
  EXPECT_EQ(buf.capacity(), 8u);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    buf.record(SimTime::microseconds(static_cast<std::int64_t>(i)),
               Category::kMedium, Event::kTransmit, i);
  }
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.total_recorded(), 5u);
  EXPECT_EQ(buf.dropped(), 0u);
  const auto records = buf.chronological();
  ASSERT_EQ(records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].a, i);
  }
}

TEST(TraceBuffer, WraparoundKeepsTheMostRecentRecords) {
  TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    buf.record(SimTime::microseconds(static_cast<std::int64_t>(i) * 100),
               Category::kMedium, Event::kDeliver, i, i * 2);
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total_recorded(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const auto records = buf.chronological();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first, and only the final four survive: seq 6, 7, 8, 9.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].seq, 6 + i);
    EXPECT_EQ(records[i].a, 6 + i);
    EXPECT_EQ(records[i].b, (6 + i) * 2);
    EXPECT_EQ(records[i].time_us, static_cast<std::int64_t>(6 + i) * 100);
  }
}

TEST(TraceBuffer, ExactlyFullIsNotADrop) {
  TraceBuffer buf(3);
  for (std::uint64_t i = 0; i < 3; ++i) {
    buf.record(SimTime::zero(), Category::kQueue, Event::kTransmit, i);
  }
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_EQ(buf.chronological().front().seq, 0u);
}

TEST(TraceBuffer, ZeroCapacityIsRejected) {
  EXPECT_THROW(TraceBuffer(0), std::invalid_argument);
}

// --- json_escape ---

TEST(JsonEscape, QuotesAndBackslashes) {
  EXPECT_EQ(obs::json_escape("plain cafe wifi"), "plain cafe wifi");
  EXPECT_EQ(obs::json_escape("say \"free\" wifi"), "say \\\"free\\\" wifi");
  EXPECT_EQ(obs::json_escape("back\\slash"), "back\\\\slash");
}

TEST(JsonEscape, ControlBytesBecomeUEscapes) {
  EXPECT_EQ(obs::json_escape(std::string("a\nb\tc")), "a\\u000ab\\u0009c");
  EXPECT_EQ(obs::json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(obs::json_escape("\x1b[31m"), "\\u001b[31m");
}

TEST(JsonEscape, WellFormedUtf8PassesThrough) {
  // 2-, 3- and 4-byte sequences: é, 中, 😀.
  const std::string ssid = "caf\xc3\xa9 \xe4\xb8\xad \xf0\x9f\x98\x80";
  EXPECT_EQ(obs::json_escape(ssid), ssid);
}

TEST(JsonEscape, InvalidUtf8BecomesReplacementCharacter) {
  const std::string fffd = "\xef\xbf\xbd";
  // Stray continuation byte.
  EXPECT_EQ(obs::json_escape("a\x80z"), "a" + fffd + "z");
  // Truncated 3-byte sequence at end of string.
  EXPECT_EQ(obs::json_escape("x\xe4\xb8"), "x" + fffd + fffd);
  // Lead byte followed by a non-continuation: both bytes replaced
  // independently ('A' is kept).
  EXPECT_EQ(obs::json_escape("\xc3" "Ab"), fffd + "Ab");
  // 0xFE/0xFF never appear in UTF-8.
  EXPECT_EQ(obs::json_escape("\xfe\xff"), fffd + fffd);
}

TEST(JsonEscape, HostileSsidYieldsParseableJson) {
  // The worst realistic input: an SSID read off the air mixing quotes,
  // escapes, control bytes and garbage. Embedding the escaped form in a
  // string literal must produce output with no raw quotes/controls left.
  const std::string hostile = "\"},\n\x01evil\\\x90\xff";
  const std::string escaped = obs::json_escape(hostile);
  for (const char c : escaped) {
    const auto byte = static_cast<unsigned char>(c);
    EXPECT_GE(byte, 0x20u);
  }
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\') {
      // Every backslash must open a valid escape; consume it whole.
      ASSERT_LT(i + 1, escaped.size()) << "dangling backslash";
      const char next = escaped[i + 1];
      EXPECT_TRUE(next == '"' || next == '\\' || next == 'u')
          << "bad escape '\\" << next << "' at index " << i;
      i += (next == 'u') ? 5 : 1;
    } else {
      EXPECT_NE(escaped[i], '"') << "bare quote at index " << i;
    }
  }
}

// --- Sinks (golden fixtures) ---

std::vector<TraceRecord> fixture_records() {
  TraceBuffer buf(8);
  buf.record(SimTime::microseconds(100), Category::kMedium, Event::kTransmit,
             1, 42);
  buf.record(SimTime::microseconds(250), Category::kAttacker,
             Event::kScanWindowFill, 12, 40);
  buf.record(SimTime::microseconds(900), Category::kFault,
             Event::kDropErasure, 7, 1);
  return buf.chronological();
}

TEST(TraceSinks, JsonlGolden) {
  const auto records = fixture_records();
  const TraceStream stream{3, "run-3", records};
  std::ostringstream os;
  obs::write_jsonl(os, {&stream, 1});
  EXPECT_EQ(
      os.str(),
      "{\"ts\":100,\"seq\":0,\"cat\":\"medium\",\"ev\":\"transmit\","
      "\"a\":1,\"b\":42,\"pid\":3}\n"
      "{\"ts\":250,\"seq\":1,\"cat\":\"attacker\",\"ev\":\"scan-window-fill\","
      "\"a\":12,\"b\":40,\"pid\":3}\n"
      "{\"ts\":900,\"seq\":2,\"cat\":\"fault\",\"ev\":\"drop-erasure\","
      "\"a\":7,\"b\":1,\"pid\":3}\n");
}

TEST(TraceSinks, ChromeTraceGolden) {
  // Byte-exact fixture: this is the serialization the "identical at any
  // thread count" acceptance check compares, so lock it down.
  const auto records = fixture_records();
  const TraceStream stream{0, "run-0 (canteen)", records};
  std::ostringstream os;
  obs::write_chrome_trace(os, {&stream, 1});
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"run-0 (canteen)\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"queue\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"medium\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":2,"
      "\"args\":{\"name\":\"fault\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":3,"
      "\"args\":{\"name\":\"attacker\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":4,"
      "\"args\":{\"name\":\"sim\"}},\n"
      "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"transmit\",\"pid\":0,\"tid\":1,"
      "\"ts\":100,\"seq\":0,\"cat\":\"medium\",\"ev\":\"transmit\","
      "\"a\":1,\"b\":42},\n"
      "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"scan-window-fill\",\"pid\":0,"
      "\"tid\":3,\"ts\":250,\"seq\":1,\"cat\":\"attacker\","
      "\"ev\":\"scan-window-fill\",\"a\":12,\"b\":40},\n"
      "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"drop-erasure\",\"pid\":0,"
      "\"tid\":2,\"ts\":900,\"seq\":2,\"cat\":\"fault\","
      "\"ev\":\"drop-erasure\",\"a\":7,\"b\":1}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);
}

// --- Campaign-level determinism across thread counts ---

std::vector<sim::RunConfig> traced_runs() {
  const sim::AttackerKind kinds[] = {sim::AttackerKind::kMana,
                                     sim::AttackerKind::kCityHunter};
  std::vector<sim::RunConfig> runs;
  for (int i = 0; i < 4; ++i) {
    sim::RunConfig run;
    run.kind = kinds[i % 2];
    run.venue = (i < 2) ? mobility::canteen_venue()
                        : mobility::subway_passage_venue();
    run.slot.expected_clients = 60 + 30 * i;
    run.duration = support::SimTime::minutes(5);
    run.run_seed = static_cast<std::uint64_t>(i + 1);
    run.obs.enabled = true;
    run.obs.trace_capacity = 4096;
    runs.push_back(std::move(run));
  }
  return runs;
}

TEST(ObsCampaign, HarvestIsIdenticalAtAnyThreadCount) {
  const sim::World world(small_scenario(7));
  const auto runs = traced_runs();

  std::vector<std::vector<sim::RunOutput>> by_threads;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    by_threads.push_back(
        sim::run_campaigns(world, runs, sim::ParallelConfig{threads}));
    ASSERT_EQ(by_threads.back().size(), runs.size());
  }

  const auto& base = by_threads.front();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "run " << i);
    const auto& out = base[i];
    ASSERT_FALSE(out.error.failed()) << out.error.str();
    EXPECT_FALSE(out.trace.empty());

    // Every point is a layer's own counter, read once at the end of the run.
    const auto& snap = out.metrics;
    const auto count = [&snap](const char* name) {
      const obs::MetricPoint* p = snap.find(name);
      EXPECT_NE(p, nullptr) << name;
      return p != nullptr ? p->count : 0;
    };
    const auto& q = out.queue_stats;
    EXPECT_EQ(count("queue.scheduled"), q.scheduled);
    EXPECT_EQ(count("queue.processed"), q.processed);
    EXPECT_EQ(count("queue.slab_slots"), q.slab_slots);
    EXPECT_EQ(count("queue.slab_reuses"), q.slab_reuses);
    ASSERT_NE(snap.find("queue.peak_pending"), nullptr);
    EXPECT_EQ(snap.find("queue.peak_pending")->value,
              static_cast<double>(q.peak_pending));
    EXPECT_EQ(count("medium.transmissions"), out.frames_transmitted);
    EXPECT_EQ(count("medium.deliveries"), out.frames_delivered);
    EXPECT_EQ(count("fault.drop_erasure") + count("fault.drop_collision"),
              out.medium_stats.frames_lost);
    EXPECT_EQ(count("trace.dropped"), out.trace_dropped);

    // The fill distribution: one sample per scan window, adding up to the
    // responses sent, never more than the paper's 40 on City-Hunter runs.
    const obs::MetricPoint* fill = snap.find("attacker.scan_window_fill");
    ASSERT_NE(fill, nullptr);
    EXPECT_EQ(fill->kind, obs::MetricKind::kDistribution);
    const std::uint64_t windows = count("attacker.scan_windows");
    EXPECT_GT(windows, 0u);
    EXPECT_EQ(fill->count, windows);
    EXPECT_DOUBLE_EQ(fill->value * static_cast<double>(fill->count),
                     static_cast<double>(count("attacker.responses_sent")));
    EXPECT_LE(fill->min, fill->value);
    EXPECT_LE(fill->value, fill->max);

    const bool hunter = runs[i].kind == sim::AttackerKind::kCityHunter;
    EXPECT_EQ(snap.points.size(), hunter ? 28u : 24u);
    if (hunter) {
      EXPECT_LE(fill->max, 40.0);
      ASSERT_NE(snap.find("attacker.pb_size"), nullptr);
      ASSERT_NE(snap.find("attacker.fb_size"), nullptr);
      EXPECT_EQ(snap.find("attacker.pb_size")->value, out.final_pb_size);
      EXPECT_EQ(snap.find("attacker.fb_size")->value, out.final_fb_size);
    }
    EXPECT_TRUE(std::is_sorted(
        snap.points.begin(), snap.points.end(),
        [](const auto& a, const auto& b) { return a.name < b.name; }));
  }

  for (std::size_t t = 1; t < by_threads.size(); ++t) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "threads-case " << t << " run " << i);
      const auto& a = base[i];
      const auto& b = by_threads[t][i];
      EXPECT_EQ(a.metrics, b.metrics);
      EXPECT_EQ(a.trace, b.trace);
      EXPECT_EQ(a.trace_dropped, b.trace_dropped);
      EXPECT_EQ(a.queue_stats, b.queue_stats);
      EXPECT_EQ(a.result, b.result);
    }
  }
}

TEST(ObsCampaign, TracingDoesNotChangeTheSimulation) {
  const sim::World world(small_scenario(7));
  auto run = traced_runs().front();
  const auto traced = sim::run_campaign(world, run);
  run.obs.enabled = false;
  const auto plain = sim::run_campaign(world, run);
  EXPECT_EQ(plain.result, traced.result);
  EXPECT_EQ(plain.frames_transmitted, traced.frames_transmitted);
  EXPECT_EQ(plain.frames_delivered, traced.frames_delivered);
  EXPECT_EQ(plain.queue_stats, traced.queue_stats);
  EXPECT_EQ(plain.medium_stats, traced.medium_stats);
  // The disabled run carries no harvest.
  EXPECT_TRUE(plain.metrics.points.empty());
  EXPECT_TRUE(plain.trace.empty());
}

}  // namespace
}  // namespace cityhunter
