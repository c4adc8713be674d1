// Discrete-event simulation core.
//
// A single-threaded priority queue of (time, sequence, closure). Sequence
// numbers make same-time events FIFO, which keeps runs deterministic.
//
// Hot-path layout: an event's callable lives in a slab recycled through a
// free list, and a 4-ary heap orders 24-byte {time, seq, slot} entries —
// so heap sifts move three words, never the callable. A sift holds the
// moving entry aside and shifts parents or children into the hole, one
// store per level; four children share a cache line or two, and the tree is
// half as deep as a binary one. (time, seq) is a total order, so the pop
// order does not depend on the heap's shape. Callables are SmallFn (inline
// storage sized for the medium's transmit closure), so posting an event
// allocates nothing at steady state.
//
// There is no cancellation. An owner that may need to void a pending event
// (a phone's join timeout, a deauth round) captures a generation number in
// the closure and bumps its own counter instead; the stale event still
// fires and returns at once. Closures that capture `this` therefore need
// their owner alive for every later run of the queue.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "support/sim_time.h"
#include "support/small_fn.h"

namespace cityhunter::medium {

using support::SimTime;

/// Scheduling an event before now() is always a caller bug (retry/backoff
/// arithmetic gone negative). The structured fields let a supervisor report
/// the near-miss precisely instead of forwarding an opaque string.
class PastScheduleError : public std::invalid_argument {
 public:
  PastScheduleError(SimTime now, SimTime requested)
      : std::invalid_argument("EventQueue: scheduling in the past (now=" +
                              now.str() + ", requested=" + requested.str() +
                              ")"),
        now_(now),
        requested_(requested) {}

  SimTime now() const { return now_; }
  SimTime requested() const { return requested_; }

 private:
  SimTime now_;
  SimTime requested_;
};

/// Thrown out of step()/run_until() when a RunGuard limit trips. Carries a
/// machine-readable kind so the campaign supervisor can classify the failure
/// (deadline_exceeded / event_budget_exceeded / cancelled) without string
/// matching.
class RunAbortError : public std::runtime_error {
 public:
  enum class Kind { kDeadlineExceeded, kEventBudgetExceeded, kCancelled };

  RunAbortError(Kind kind, std::string what)
      : std::runtime_error(std::move(what)), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Cooperative run limits, checked at event-queue granularity: the event
/// budget and cancel flag on every step, the wallclock deadline every
/// kDeadlineCheckStride steps (a steady_clock read per event would dominate
/// the ~100 ns event dispatch). Zero/null fields disable each limit; a
/// default RunGuard never trips.
struct RunGuard {
  /// Max events executed after arming (0 = unlimited).
  std::uint64_t max_events = 0;
  /// Wallclock budget in seconds from arm_guard() (0 = unlimited).
  double deadline_s = 0.0;
  /// External cancellation flag, polled with relaxed loads (nullptr = none).
  const std::atomic<bool>* cancel = nullptr;
};

class EventQueue {
 public:
  /// Inline capacity fits the medium's finish-transmission closure (two
  /// pointers) with room to spare for multi-capture client callbacks.
  using Callback = support::SmallFn<48>;

  /// Lifetime counters, maintained unconditionally (plain integer stores —
  /// no observable cost on the hot path). `scheduled` counts every accepted
  /// push; `processed` counts executed steps (events their owner has since
  /// voided included: they still pass through the heap).
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t processed = 0;
    std::uint64_t peak_pending = 0;
    std::uint64_t slab_slots = 0;   // distinct slab entries ever allocated
    std::uint64_t slab_reuses = 0;  // pushes served from the free list

    /// Fraction of pushes that recycled an existing slab slot.
    double slab_reuse_ratio() const {
      return scheduled ? static_cast<double>(slab_reuses) /
                             static_cast<double>(scheduled)
                       : 0.0;
    }

    bool operator==(const Stats&) const = default;
  };

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now).
  void post_at(SimTime t, Callback fn);

  /// Schedule `fn` after `delay` from now.
  void post_in(SimTime delay, Callback fn) {
    post_at(now_ + delay, std::move(fn));
  }

  /// Arm (or, with a default RunGuard, disarm) the cooperative run limits.
  /// The deadline clock and event count start here. Limits fire from inside
  /// step() as RunAbortError — the run's stack unwinds through run_until(),
  /// and the supervisor classifies the abort.
  void arm_guard(RunGuard guard);

  /// Run all events with time <= `until`, advancing now() as they fire.
  /// now() ends at `until` even if the queue drains earlier. Throws
  /// PastScheduleError when `until` is before now(): the clock never runs
  /// backwards.
  void run_until(SimTime until);

  /// Run until the queue is empty.
  void run_all();

  /// Execute at most one event; returns false if the queue is empty.
  bool step();

  std::size_t pending() const { return heap_.size(); }

  const Stats& stats() const { return stats_; }

 private:
  /// Heap-resident part: ordering key plus the slab slot index.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// True when `a` fires before `b`.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  static constexpr std::size_t kArity = 4;
  /// Place `moving` at or above the hole `i`, shifting later parents down.
  void sift_up(std::size_t i, HeapEntry moving);
  /// Place `moving` at or below the hole `i`, shifting earlier children up.
  void sift_down(std::size_t i, HeapEntry moving);

  /// Deadline re-check stride: a steady_clock read every event would cost
  /// more than the event dispatch itself; every 2048 events bounds the
  /// overshoot to a few hundred µs of wallclock at worst.
  static constexpr std::uint64_t kDeadlineCheckStride = 2048;
  /// Throws RunAbortError when an armed limit has tripped. Called once per
  /// step, before the event fires.
  void check_guard();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  Stats stats_;
  RunGuard guard_;
  bool guard_armed_ = false;
  std::uint64_t guard_events_ = 0;  // events executed since arm_guard()
  std::chrono::steady_clock::time_point guard_start_{};
  std::vector<Callback> slab_;  // event callables, indexed by heap slot
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap by (time, seq)
};

}  // namespace cityhunter::medium
