#include "medium/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cityhunter::medium {

void EventQueue::post_at(SimTime t, Callback fn) {
  if (t < now_) {
    // Typed, with both times attached: retry/backoff scheduling bugs show up
    // as near-miss negative delays, and the campaign supervisor classifies
    // the error instead of pattern-matching a what() string.
    throw PastScheduleError(now_, t);
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
    ++stats_.slab_reuses;
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
    stats_.slab_slots = slab_.size();
  }
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapEntry{t, next_seq_++, slot});
  ++stats_.scheduled;
  if (heap_.size() > stats_.peak_pending) stats_.peak_pending = heap_.size();
}

void EventQueue::run_until(SimTime until) {
  if (until < now_) throw PastScheduleError(now_, until);
  while (!heap_.empty() && heap_.front().time <= until) {
    step();
  }
  now_ = until;
}

void EventQueue::run_all() {
  while (step()) {
  }
}

void EventQueue::arm_guard(RunGuard guard) {
  guard_ = guard;
  guard_armed_ = guard.max_events > 0 || guard.deadline_s > 0.0 ||
                 guard.cancel != nullptr;
  guard_events_ = 0;
  if (guard_.deadline_s > 0.0) {
    guard_start_ = std::chrono::steady_clock::now();
  }
}

void EventQueue::check_guard() {
  if (guard_.cancel != nullptr &&
      guard_.cancel->load(std::memory_order_relaxed)) {
    throw RunAbortError(RunAbortError::Kind::kCancelled,
                        "EventQueue: run cancelled after " +
                            std::to_string(guard_events_) +
                            " events (sim time " + now_.str() + ")");
  }
  if (guard_.max_events > 0 && guard_events_ >= guard_.max_events) {
    throw RunAbortError(RunAbortError::Kind::kEventBudgetExceeded,
                        "EventQueue: event budget of " +
                            std::to_string(guard_.max_events) +
                            " exhausted (sim time " + now_.str() + ")");
  }
  if (guard_.deadline_s > 0.0 &&
      guard_events_ % kDeadlineCheckStride == 0) {
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      guard_start_)
            .count();
    if (elapsed_s > guard_.deadline_s) {
      throw RunAbortError(RunAbortError::Kind::kDeadlineExceeded,
                          "EventQueue: wallclock deadline of " +
                              std::to_string(guard_.deadline_s) +
                              " s exceeded after " +
                              std::to_string(guard_events_) +
                              " events (sim time " + now_.str() + ")");
    }
  }
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  if (guard_armed_) {
    // Before the pop: a tripped guard abandons the run with the queue state
    // intact, and the throw unwinds out of run_until() into the supervisor.
    check_guard();
    ++guard_events_;
  }
  const HeapEntry top = heap_.front();
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);

  now_ = top.time;
  // Move the callable out of the slab and release the slot BEFORE invoking:
  // the callback may schedule new events, which can grow the slab and
  // invalidate references into it.
  Callback fn = std::move(slab_[top.slot]);
  free_slots_.push_back(top.slot);
  ++stats_.processed;
  fn();
  return true;
}

void EventQueue::sift_up(std::size_t i, HeapEntry moving) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventQueue::sift_down(std::size_t i, HeapEntry moving) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

}  // namespace cityhunter::medium
