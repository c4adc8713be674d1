#include "sim/parallel.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "medium/event_queue.h"
#include "support/atomic_file.h"
#include "support/parallel_for.h"

namespace cityhunter::sim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string describe_failure(const RunConfig& run, const char* what) {
  return "run_seed=" + std::to_string(run.run_seed) +
         " venue=" + run.venue.name + " attacker=" + to_string(run.kind) +
         ": " + what;
}

RunErrorKind classify_abort(medium::RunAbortError::Kind k) {
  switch (k) {
    case medium::RunAbortError::Kind::kDeadlineExceeded:
      return RunErrorKind::kDeadlineExceeded;
    case medium::RunAbortError::Kind::kEventBudgetExceeded:
      return RunErrorKind::kEventBudgetExceeded;
    case medium::RunAbortError::Kind::kCancelled:
      return RunErrorKind::kCancelled;
  }
  return RunErrorKind::kException;
}

/// One run behind the exception firewall: whatever goes wrong is
/// classified into RunOutput::error instead of propagating and discarding
/// every other run's result. The run's wall time goes to `load`, its
/// lane's.
RunOutput firewalled_run(const World& world, const RunConfig& run,
                         ParallelStats::WorkerLoad& load) {
  const auto start = std::chrono::steady_clock::now();
  RunOutput out;
  try {
    out = run_campaign(world, run);
  } catch (const medium::RunAbortError& e) {
    out = RunOutput{};
    out.error.kind = classify_abort(e.kind());
    out.error.message = describe_failure(run, e.what());
  } catch (const std::exception& e) {
    // Includes medium::PastScheduleError: scheduling into the past surfaces
    // as a classified kException with the queue's now/requested message,
    // not an anonymous crash.
    out = RunOutput{};
    out.error.kind = RunErrorKind::kException;
    out.error.message = describe_failure(run, e.what());
  } catch (...) {
    out = RunOutput{};
    out.error.kind = RunErrorKind::kException;
    out.error.message = describe_failure(run, "unknown exception");
  }
  ++load.runs;
  load.busy_s += seconds_since(start);
  return out;
}

/// Shared supervision state for one run_campaigns()/resume_campaigns()
/// call: result slots, completion count, checkpoint writer and the kill
/// switch. All completion-side mutation happens under one mutex —
/// completions are seconds apart, contention is irrelevant.
class Supervisor {
 public:
  Supervisor(const World& world, std::span<const RunConfig> runs,
             const ParallelConfig& cfg)
      : world_(world),
        runs_(runs),
        cfg_(cfg),
        outputs_(runs.size()),
        entries_(cfg.checkpoint_path.empty() ? 0 : runs.size()),
        done_(runs.size(), false) {
    if (cfg_.checkpoint_every < 1) {
      throw std::invalid_argument(
          "ParallelConfig: checkpoint_every must be >= 1");
    }
    if (!cfg_.checkpoint_path.empty()) {
      const auto start = std::chrono::steady_clock::now();
      config_hash_ = campaign_config_hash(world_.config(), runs_);
      checkpoint_s_ += seconds_since(start);
    }
  }

  /// Pre-fill slots restored from a checkpoint (resume path).
  void restore(std::vector<CompletedRun> completed) {
    for (CompletedRun& run : completed) {
      outputs_[run.index] = std::move(run.output);
      done_[run.index] = true;
      ++completed_count_;
      ++resumed_runs_;
      encode_entry(run.index);
    }
  }

  bool is_done(std::size_t index) const { return done_[index]; }

  /// Run one run behind the firewall, profiled into `load`, and record its
  /// completion (which may checkpoint and may pull the kill switch). Never
  /// throws.
  void supervise(std::size_t index, ParallelStats::WorkerLoad& load) {
    complete(index, firewalled_run(world_, runs_[index], load));
  }

  std::vector<RunOutput> take_outputs() { return std::move(outputs_); }

  void fill_stats(ParallelStats& stats) const {
    stats.checkpoint_writes = checkpoint_writes_;
    stats.checkpoint_bytes = checkpoint_bytes_;
    stats.checkpoint_entries_encoded = checkpoint_entries_encoded_;
    stats.checkpoint_write_failures = checkpoint_write_failures_;
    stats.resumed_runs = resumed_runs_;
    stats.checkpoint_s = checkpoint_s_;
  }

 private:
  void complete(std::size_t index, RunOutput&& out) {
    std::lock_guard<std::mutex> lock(mu_);
    outputs_[index] = std::move(out);
    done_[index] = true;
    ++completed_count_;
    encode_entry(index);
    if (!cfg_.checkpoint_path.empty() &&
        (completed_count_ % static_cast<std::size_t>(cfg_.checkpoint_every) ==
             0 ||
         completed_count_ == runs_.size())) {
      write_checkpoint_locked();
    }
    if (cfg_.kill_after >= 0 &&
        completed_count_ >= static_cast<std::size_t>(cfg_.kill_after)) {
      // The crash half of the kill-and-resume drill: die exactly like a
      // machine losing power — no flushing, no unwinding. Resume must
      // reconstruct everything past the last checkpoint from seeds alone.
      std::raise(SIGKILL);
    }
  }

  /// A completed run's checkpoint entry, encoded once: every later
  /// checkpoint reuses it instead of copying and re-encoding the output.
  void encode_entry(std::size_t index) {
    if (cfg_.checkpoint_path.empty()) return;
    const auto start = std::chrono::steady_clock::now();
    entries_[index] = encode_checkpoint_entry(
        static_cast<std::uint32_t>(index), outputs_[index]);
    ++checkpoint_entries_encoded_;
    checkpoint_s_ += seconds_since(start);
  }

  void write_checkpoint_locked() {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::string_view> entries;
    entries.reserve(completed_count_);
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      if (done_[i]) entries.push_back(entries_[i]);
    }
    const std::string bytes = encode_checkpoint(
        config_hash_, static_cast<std::uint32_t>(runs_.size()), entries);
    std::string error;
    if (support::write_file_atomic(cfg_.checkpoint_path, bytes, &error)) {
      ++checkpoint_writes_;
      checkpoint_bytes_ = bytes.size();
    } else {
      // A checkpoint that cannot be written must not kill the campaign it
      // exists to protect; the failure is surfaced as a counter.
      ++checkpoint_write_failures_;
    }
    checkpoint_s_ += seconds_since(start);
  }

  const World& world_;
  std::span<const RunConfig> runs_;
  ParallelConfig cfg_;

  std::mutex mu_;
  std::vector<RunOutput> outputs_;
  std::vector<std::string> entries_;  // checkpoint entries, by run index
  std::vector<bool> done_;
  std::size_t completed_count_ = 0;
  std::uint64_t config_hash_ = 0;
  std::uint64_t checkpoint_writes_ = 0;
  std::uint64_t checkpoint_bytes_ = 0;
  std::uint64_t checkpoint_entries_encoded_ = 0;
  std::uint64_t checkpoint_write_failures_ = 0;
  std::uint64_t resumed_runs_ = 0;
  double checkpoint_s_ = 0.0;
};

/// The shared engine behind run_campaigns() and resume_campaigns(): fan the
/// not-yet-done runs over the lanes (one lane runs them serially), profile,
/// collect.
std::vector<RunOutput> drive(std::span<const RunConfig> runs,
                             const ParallelConfig& cfg, ParallelStats* stats,
                             Supervisor& supervisor) {
  const auto wall_start = std::chrono::steady_clock::now();

  std::vector<std::size_t> pending;
  pending.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!supervisor.is_done(i)) pending.push_back(i);
  }

  const std::size_t lanes = std::clamp<std::size_t>(
      cfg.threads != 0 ? cfg.threads : support::default_workers(), 1,
      std::max<std::size_t>(pending.size(), 1));
  std::vector<ParallelStats::WorkerLoad> loads(lanes);
  // supervise() never throws, so every healthy run's output is collected
  // regardless of failures elsewhere.
  support::parallel_for(lanes, pending.size(),
                        [&](std::size_t lane, std::size_t item) {
                          supervisor.supervise(pending[item], loads[lane]);
                        });

  if (stats != nullptr) {
    *stats = ParallelStats{};
    stats->workers = lanes;
    stats->wall_s = seconds_since(wall_start);
    for (const auto& load : loads) {
      if (load.runs > 0) stats->loads.push_back(load);
    }
    supervisor.fill_stats(*stats);
  }
  return supervisor.take_outputs();
}

}  // namespace

std::vector<RunOutput> run_campaigns(const World& world,
                                     std::span<const RunConfig> runs,
                                     ParallelConfig cfg,
                                     ParallelStats* stats) {
  Supervisor supervisor(world, runs, cfg);
  return drive(runs, cfg, stats, supervisor);
}

std::vector<RunOutput> resume_campaigns(const World& world,
                                        std::span<const RunConfig> runs,
                                        ParallelConfig cfg,
                                        ParallelStats* stats) {
  if (cfg.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "resume_campaigns: checkpoint_path must be set");
  }
  const std::uint64_t expected = campaign_config_hash(world.config(), runs);
  auto loaded = load_checkpoint(cfg.checkpoint_path, expected);
  if (auto* err = std::get_if<CheckpointError>(&loaded)) {
    throw CheckpointResumeError(std::move(*err));
  }
  CampaignCheckpoint cp = std::move(std::get<CampaignCheckpoint>(loaded));
  if (cp.total_runs != runs.size()) {
    CheckpointError err;
    err.kind = CheckpointErrorKind::kConfigMismatch;
    err.message = "checkpoint covers " + std::to_string(cp.total_runs) +
                  " runs, campaign has " + std::to_string(runs.size());
    throw CheckpointResumeError(std::move(err));
  }

  Supervisor supervisor(world, runs, cfg);
  supervisor.restore(std::move(cp.completed));
  return drive(runs, cfg, stats, supervisor);
}

std::size_t failed_runs(const std::vector<RunOutput>& outputs) {
  std::size_t n = 0;
  for (const auto& out : outputs) {
    if (out.error.failed()) ++n;
  }
  return n;
}

}  // namespace cityhunter::sim
