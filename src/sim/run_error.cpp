#include "sim/run_error.h"

namespace cityhunter::sim {

const char* to_string(RunErrorKind k) {
  switch (k) {
    case RunErrorKind::kNone: return "none";
    case RunErrorKind::kException: return "exception";
    case RunErrorKind::kDeadlineExceeded: return "deadline-exceeded";
    case RunErrorKind::kEventBudgetExceeded: return "event-budget-exceeded";
    case RunErrorKind::kCancelled: return "cancelled";
  }
  return "?";
}

std::string RunError::str() const {
  if (kind == RunErrorKind::kNone) return {};
  std::string out = to_string(kind);
  out += ": ";
  out += message;
  return out;
}

}  // namespace cityhunter::sim
