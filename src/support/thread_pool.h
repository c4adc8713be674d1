// Fixed-size worker pool for fanning independent work across cores.
//
// Campaigns in bench/ are embarrassingly parallel (one discrete-event world
// per run), so a plain futures-based pool is all the machinery needed: no
// work stealing, no task graphs. Tasks may submit further tasks, but must
// not block on a future produced by the same pool (classic starvation).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cityhunter::support {

class ThreadPool {
 public:
  /// `workers` = 0 picks default_workers().
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Enqueue `fn` and get a future for its result. Exceptions thrown by the
  /// task surface from future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool: submit after shutdown");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Worker count used when none is given: the CITYHUNTER_THREADS env var
  /// if set to a positive integer, else std::thread::hardware_concurrency().
  static std::size_t default_workers();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Low-latency fork-join team for the sharded city's epochs (sim/shard).
///
/// ThreadPool's futures-based submit costs a mutex, a packaged_task heap
/// allocation and a condition-variable wakeup per task — fine for campaign
/// runs that last seconds, fatal for fork-joins that last microseconds.
/// TaskTeam keeps N helper threads parked on one atomic epoch:
/// dispatch() is two plain stores plus a release increment, helpers spin
/// briefly before falling back to atomic::wait (futex), and join is a
/// counter the caller spins on. No allocation, no mutex, no std::function
/// on the dispatch path.
///
/// Protocol (single producer): dispatch(fn, ctx) → caller does its own share
/// of the work → wait(). The callable is a plain function pointer; every
/// helper runs fn(ctx, helper_index) exactly once per dispatch. Memory
/// ordering: writes made by the caller before dispatch() are visible to
/// helpers (release/acquire on the epoch), and writes made by helpers before
/// returning from fn are visible to the caller after wait() (release/acquire
/// on the done counter).
class TaskTeam {
 public:
  using Fn = void (*)(void* ctx, std::size_t helper_index);

  /// Spawns `helpers` parked threads (the caller is not one of them — a
  /// W-way fork-join wants helpers = W − 1).
  explicit TaskTeam(std::size_t helpers);
  ~TaskTeam();

  TaskTeam(const TaskTeam&) = delete;
  TaskTeam& operator=(const TaskTeam&) = delete;

  std::size_t helpers() const { return threads_.size(); }

  /// Launch fn(ctx, i) on every helper i. Must not be called again before
  /// wait() returns; the caller should run its own chunk between the two.
  void dispatch(Fn fn, void* ctx);
  /// Block until every helper finished the current dispatch.
  void wait();

 private:
  void helper_loop(std::size_t index);

  Fn fn_ = nullptr;    // valid between dispatch() and the helpers' done
  void* ctx_ = nullptr;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> threads_;
};

}  // namespace cityhunter::support
