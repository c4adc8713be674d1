// Structured run-failure taxonomy.
//
// A campaign run that does not complete is tagged with WHY, as data:
// benches print machine-stable failure banners, callers count failures by
// kind, and the campaign checkpoint carries the classification across a
// crash. A run is a pure function of (world config, run config), so the
// runner does not retry a failed run: an exception or an exhausted event
// budget would only repeat. The kind is what code branches on, the message
// is what humans read.
#pragma once

#include <cstdint>
#include <string>

namespace cityhunter::sim {

enum class RunErrorKind : std::uint8_t {
  kNone = 0,                 // the run completed
  kException = 1,            // run_campaign threw (bad config, internal bug)
  kDeadlineExceeded = 2,     // per-run wallclock watchdog tripped
  kEventBudgetExceeded = 3,  // sim-event budget exhausted
  kCancelled = 4,            // external cancellation flag was raised
};

const char* to_string(RunErrorKind k);

struct RunError {
  RunErrorKind kind = RunErrorKind::kNone;
  /// Human-readable context: "run_seed=<seed> venue=<name>
  /// attacker=<kind>: <what>". Empty iff kind == kNone.
  std::string message;

  bool failed() const { return kind != RunErrorKind::kNone; }
  /// "kind: message" for banners; empty string on success.
  std::string str() const;

  bool operator==(const RunError&) const = default;
};

}  // namespace cityhunter::sim
