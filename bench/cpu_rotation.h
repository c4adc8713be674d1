// Rotating one thread's timed runs over the CPUs it may use (Linux).
//
// On a shared VM the vCPUs can differ in speed by 1.5x or more, and an
// unpinned serial thread times whichever of them the scheduler picked:
// bench/wallclock's serial fig6 pass read anywhere from 0.38 to 0.73 s on
// one binary. A pass of n runs is cut into one contiguous block of runs per
// CPU, each block pinned to its CPU, and every pass shifts the blocks by
// one CPU. So each pass spends an equal share of its runs on every CPU and
// passes compare like with like. Blocks, not a new CPU per run: a fig6 run
// lasts about 6 ms, and moving the thread before every run made the serial
// pass 14% slower at the median (0.298 s against 0.261 s unpinned) on a
// 4-vCPU host where a whole pass pinned to any one vCPU took 0.256-0.266 s.
//
// The thread's own affinity is restored by restore() and on destruction;
// restore before starting worker threads, which inherit the caller's mask.
// With fewer than two allowed CPUs, or when pinning is refused, the
// rotation does nothing.
#pragma once

#include <sched.h>

#include <cstddef>
#include <vector>

namespace cityhunter::bench {

class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) cpus_.clear();
  }
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// CPUs the runs rotate over; 0 when the rotation is off.
  std::size_t cpus() const { return cpus_.size(); }

  /// Pin the calling thread to the CPU for run `run` of a pass of `runs`.
  void place(std::size_t run, std::size_t runs) {
    if (cpus_.empty()) return;
    const std::size_t block = run * cpus_.size() / runs;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(block + offset_) % cpus_.size()], &one);
    pinned_ = true;
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      restore();
      cpus_.clear();
    }
  }

  /// Shift the next pass's blocks by one CPU.
  void next_pass() { ++offset_; }

  /// Give the calling thread back the affinity it started with.
  void restore() {
    if (!pinned_) return;
    sched_setaffinity(0, sizeof(allowed_), &allowed_);
    pinned_ = false;
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t offset_ = 0;
  bool pinned_ = false;
};

}  // namespace cityhunter::bench
