// Fork-join over independent items: the one threading primitive here.
//
// The campaign runner (sim/parallel) fans a campaign's runs out with it,
// and the sharded city (sim/shard) advances an epoch's shards with it.
// Both fork rarely — once per campaign call, once per barrier epoch — and
// each item lasts milliseconds or longer, so starting the threads per call
// costs nothing measurable (a 4-lane fork-join of no-ops takes tens of
// microseconds), and no thread outlives the call.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

namespace cityhunter::support {

/// Thread count used when none is given: the CITYHUNTER_THREADS env var if
/// set to a positive integer, else std::thread::hardware_concurrency().
inline std::size_t default_workers() {
  if (const char* env = std::getenv("CITYHUNTER_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Call fn(lane, item) exactly once for every item in [0, n) and return
/// when all calls have finished. The caller is lane 0; lanes − 1
/// std::jthreads (never more than n − 1, and none for lanes <= 1) start
/// for the call and are joined before it returns, so every write an item
/// made is visible to the caller afterwards. Items come off one atomic
/// cursor: which lane runs an item is scheduling, so `fn` must not let it
/// reach a result — use `lane` only for per-lane scratch or profiling.
///
/// If a call throws, lanes stop taking items once they see the failure
/// (a lane may already hold one more), and the first exception is
/// rethrown to the caller after the join.
template <typename Fn>
void parallel_for(std::size_t lanes, std::size_t n, Fn&& fn) {
  lanes = std::clamp<std::size_t>(lanes, 1, std::max<std::size_t>(n, 1));
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written only by the lane that set `failed`
  const auto run_lane = [&](std::size_t lane) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t item = cursor.fetch_add(1, std::memory_order_relaxed);
      if (item >= n) return;
      try {
        fn(lane, item);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(lanes - 1);
    for (std::size_t lane = 1; lane < lanes; ++lane) {
      helpers.emplace_back(run_lane, lane);
    }
    run_lane(0);
  }  // the jthreads join here
  if (error) std::rethrow_exception(error);
}

}  // namespace cityhunter::support
