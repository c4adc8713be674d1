// Parallel campaign execution under a run supervisor.
//
// Every bench in bench/ regenerates a paper figure from dozens of mutually
// independent discrete-event runs; run_campaigns() fans those runs across
// worker threads (support::parallel_for). Because run_campaign() is pure in the World (const accessors
// only, per-run RNG seeded world.seed ^ run_seed*φ, per-run PnlModel copy),
// the parallel output is bit-identical to running the same configs serially
// in order — scheduling cannot leak into results.
//
// The supervisor layered on top (DESIGN.md §5f) makes long campaigns
// survivable rather than merely parallel:
//   * every failure is CLASSIFIED (sim/run_error.h), not stringly typed —
//     a thrown exception, a tripped wallclock deadline, an exhausted
//     sim-event budget and an external cancel each get their own kind;
//   * retryable failures are re-attempted up to RunConfig::max_retries
//     times with a deterministic per-(seed, attempt) exponential backoff;
//   * progress is checkpointed crash-safely every checkpoint_every
//     completions (sim/checkpoint.h), and resume_campaigns() continues a
//     killed campaign to a byte-identical final output;
//   * a chaos layer (ChaosConfig / CITYHUNTER_CHAOS) injects throws, hangs,
//     queue poison and SIGKILL on demand so all of the above stays tested.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/scenario.h"

namespace cityhunter::sim {

/// Deterministic fault injection into the campaign runner. Each knob names
/// a run index (into the `runs` span) whose FIRST attempt is sabotaged;
/// retries run clean, so a supervised campaign under chaos still converges
/// to the byte-identical unchaosed output. -1 = off.
struct ChaosConfig {
  /// Throw std::runtime_error instead of starting this run's first attempt.
  int throw_run = -1;
  /// Inject a busy-wait hang (RunConfig::chaos_hang) into this run's first
  /// attempt. When the run has no deadline of its own, the supervisor arms
  /// kHangRescueDeadlineS so the watchdog — not the user's ctrl-C — ends it.
  int hang_run = -1;
  /// Inject a past-scheduling event (RunConfig::chaos_poison_schedule) into
  /// this run's first attempt.
  int poison_run = -1;
  /// SIGKILL the whole process the moment this many runs have completed —
  /// the crash half of the kill-and-resume drill. -1 = off.
  int kill_after = -1;

  /// Deadline armed for a chaos-hung run that had none (seconds).
  static constexpr double kHangRescueDeadlineS = 0.25;

  bool any() const {
    return throw_run >= 0 || hang_run >= 0 || poison_run >= 0 ||
           kill_after >= 0;
  }

  /// Parse the CITYHUNTER_CHAOS env var: comma-separated key=value with
  /// keys throw, hang, poison, kill_after (e.g. "hang=2,kill_after=5").
  /// Unset/empty env or unrecognised tokens leave the knob off.
  static ChaosConfig from_env();
};

/// Every run builds its own setup from the World's precomputed offline
/// lists, as run_campaign(world, cfg) does, so no worker waits on another.
struct ParallelConfig {
  ParallelConfig() = default;
  /// Thread-count-only config — the shape every pre-supervisor call site
  /// used (ParallelConfig{4}); checkpointing and chaos stay off.
  ParallelConfig(std::size_t threads_) : threads(threads_) {}

  /// Worker threads. 0 = support::default_workers(), i.e. the
  /// CITYHUNTER_THREADS env var if set, else the hardware thread count.
  std::size_t threads = 0;

  /// Checkpoint file path; empty disables checkpointing.
  std::string checkpoint_path;
  /// Write the checkpoint after every this-many run completions (and always
  /// after the final one). Must be >= 1 — validated in the same style as
  /// Medium::Config.
  int checkpoint_every = 8;

  /// Fault injection; merged with CITYHUNTER_CHAOS (the env var wins only
  /// when this struct is all-off).
  ChaosConfig chaos{};
};

/// Wallclock + supervision profile of one run_campaigns() call. Pure
/// profiling output — never feeds back into results, which stay
/// bit-identical regardless.
struct ParallelStats {
  struct WorkerLoad {
    std::size_t runs = 0;
    double busy_s = 0.0;
  };

  /// Lanes the runs were fanned over: the configured thread count, capped
  /// at the runs left to do (1 for the serial path).
  std::size_t workers = 0;
  double wall_s = 0.0;      // whole call, fan-out to last retry joined
  /// One entry per lane that made at least one attempt, in lane order.
  /// WorkerLoad::runs counts attempts: a run's retries stay on its lane.
  std::vector<WorkerLoad> loads;

  /// --- Supervisor counters (bench/wallclock exports these). ---
  std::uint64_t retries = 0;           // re-attempts spent across all runs
  std::uint64_t timeouts = 0;          // deadline-watchdog trips
  std::uint64_t event_budget_trips = 0;
  std::uint64_t cancelled = 0;         // attempts ended by the cancel flag
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_bytes = 0;  // total encoded bytes written
  std::uint64_t checkpoint_write_failures = 0;
  std::uint64_t resumed_runs = 0;      // outputs restored from a checkpoint
  /// Wall time of the checkpoint work itself: hashing the campaign config
  /// once, then copying, encoding and atomically writing every checkpoint.
  double checkpoint_s = 0.0;

  double busy_s() const {
    double total = 0.0;
    for (const auto& l : loads) total += l.busy_s;
    return total;
  }
  /// Mean fraction of the lanes' wallclock spent inside runs. >1 is
  /// impossible; ~1 means no lane idled.
  double utilization() const {
    return workers > 0 && wall_s > 0.0
               ? busy_s() / (wall_s * static_cast<double>(workers))
               : 0.0;
  }
};

/// Deterministic retry backoff for attempt `attempt` (0-based: the delay
/// before re-attempt attempt+1) of the run seeded `run_seed`: exponential
/// 1ms * 2^attempt plus a per-(seed, attempt) hash jitter in [0, base).
/// Pure function — tests assert the exact schedule.
double retry_backoff_s(std::uint64_t run_seed, std::uint32_t attempt);

/// Run every config in `runs` against the shared immutable `world` and
/// return the outputs in input order. Never throws for a failing run: see
/// RunOutput::error for the classified failure. When `stats` is non-null it
/// is overwritten with the call's wallclock + supervision profile.
std::vector<RunOutput> run_campaigns(const World& world,
                                     std::span<const RunConfig> runs,
                                     ParallelConfig cfg = {},
                                     ParallelStats* stats = nullptr);

/// A resume that cannot proceed: the checkpoint is missing, damaged,
/// version-skewed or belongs to a different campaign. Carries the
/// structured CheckpointError; the campaign is never partially resumed.
class CheckpointResumeError : public std::runtime_error {
 public:
  explicit CheckpointResumeError(CheckpointError err)
      : std::runtime_error("resume: " + err.str()), error_(std::move(err)) {}
  const CheckpointError& error() const { return error_; }

 private:
  CheckpointError error_;
};

/// Continue a checkpointed campaign: load cfg.checkpoint_path, verify it
/// matches (world, runs) by config hash and run count, restore every
/// completed output verbatim and run only the missing ones. The returned
/// vector is byte-identical to what an uninterrupted run_campaigns() call
/// would have produced. Throws CheckpointResumeError when the checkpoint
/// cannot be trusted and std::invalid_argument when cfg.checkpoint_path is
/// empty.
std::vector<RunOutput> resume_campaigns(const World& world,
                                        std::span<const RunConfig> runs,
                                        ParallelConfig cfg,
                                        ParallelStats* stats = nullptr);

/// Number of outputs whose run failed (RunOutput::error set).
std::size_t failed_runs(const std::vector<RunOutput>& outputs);

}  // namespace cityhunter::sim
