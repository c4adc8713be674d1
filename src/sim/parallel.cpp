#include "sim/parallel.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "medium/event_queue.h"
#include "support/atomic_file.h"
#include "support/hash.h"
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

/// One attempt of one run behind the exception firewall: whatever goes
/// wrong is classified into RunOutput::error instead of propagating and
/// discarding every other run's result. `inject_throw` is the chaos layer's
/// synthetic exception. The attempt's wall time goes to `load`, its lane's.
RunOutput attempt_run(const World& world, const RunConfig& run,
                      bool inject_throw, ParallelStats::WorkerLoad& load) {
  const auto start = std::chrono::steady_clock::now();
  RunOutput out;
  try {
    if (inject_throw) {
      throw std::runtime_error("chaos: injected failure before the run");
    }
    out = run_campaign(world, run);
  } catch (const medium::RunAbortError& e) {
    out = RunOutput{};
    out.error.kind = classify_abort(e.kind());
    out.error.message = describe_failure(run, e.what());
  } catch (const std::exception& e) {
    // Includes medium::PastScheduleError — a poisoned schedule surfaces as
    // a classified kException with the queue's now/requested message, not
    // an anonymous crash.
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
/// call: result slots, completion count, checkpoint writer and the chaos
/// kill switch. All completion-side mutation happens under one mutex —
/// completions are seconds apart, contention is irrelevant.
class Supervisor {
 public:
  Supervisor(const World& world, std::span<const RunConfig> runs,
             const ParallelConfig& cfg)
      : world_(world),
        runs_(runs),
        cfg_(cfg),
        chaos_(cfg.chaos.any() ? cfg.chaos : ChaosConfig::from_env()),
        outputs_(runs.size()),
        entries_(cfg.checkpoint_path.empty() ? 0 : runs.size()),
        done_(runs.size(), false) {
    if (cfg_.checkpoint_every < 1) {
      throw std::invalid_argument(
          "ParallelConfig: checkpoint_every must be >= 1");
    }
    if (!cfg_.checkpoint_path.empty()) {
      const auto start = std::chrono::steady_clock::now();
      config_hash_ = campaign_config_hash(world_, runs_);
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

  /// The full retry loop for one run: attempt, classify, back off, retry
  /// while retryable, then record the completion (which may checkpoint and
  /// may pull the chaos kill switch). Every attempt is profiled into
  /// `load`. Never throws.
  void supervise(std::size_t index, ParallelStats::WorkerLoad& load) {
    const RunConfig& base = runs_[index];
    // Defensive clamp: an out-of-range max_retries makes run_campaign
    // throw kException on every attempt; the loop bound must still be sane.
    const int retries_allowed = std::min(std::max(base.max_retries, 0), 8);
    for (int attempt = 0;; ++attempt) {
      RunConfig run = base;
      bool inject_throw = false;
      if (attempt == 0) {
        // Chaos sabotages the first attempt only; retries run clean, so
        // the supervised campaign converges to the unchaosed output.
        if (chaos_.throw_run == static_cast<int>(index)) inject_throw = true;
        if (chaos_.hang_run == static_cast<int>(index)) {
          run.chaos_hang = true;
          if (run.deadline_s <= 0.0) {
            run.deadline_s = ChaosConfig::kHangRescueDeadlineS;
          }
        }
        if (chaos_.poison_run == static_cast<int>(index)) {
          run.chaos_poison_schedule = true;
        }
      }
      RunOutput out = attempt_run(world_, run, inject_throw, load);
      if (!out.error.failed()) {
        // error.attempts stays 0 on success — a retried-then-successful
        // run is bit-identical to an undisturbed one. The retry count
        // lives in the supervisor counters instead.
        complete(index, std::move(out));
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        switch (out.error.kind) {
          case RunErrorKind::kDeadlineExceeded: ++timeouts_; break;
          case RunErrorKind::kEventBudgetExceeded: ++event_budget_trips_; break;
          case RunErrorKind::kCancelled: ++cancelled_; break;
          default: break;
        }
      }
      if (out.error.retryable() && attempt < retries_allowed) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++retries_;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(
            retry_backoff_s(base.run_seed, static_cast<std::uint32_t>(attempt))));
        continue;
      }
      if (out.error.retryable() && retries_allowed > 0) {
        // Every allowed attempt failed; the kind says so, the message
        // keeps the last underlying failure verbatim.
        out.error.kind = RunErrorKind::kRetryExhausted;
      }
      out.error.attempts = static_cast<std::uint32_t>(attempt + 1);
      complete(index, std::move(out));
      return;
    }
  }

  std::vector<RunOutput> take_outputs() { return std::move(outputs_); }

  void fill_stats(ParallelStats& stats) const {
    stats.retries = retries_;
    stats.timeouts = timeouts_;
    stats.event_budget_trips = event_budget_trips_;
    stats.cancelled = cancelled_;
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
    if (chaos_.kill_after >= 0 &&
        completed_count_ >= static_cast<std::size_t>(chaos_.kill_after)) {
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
      checkpoint_bytes_ += bytes.size();
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
  ChaosConfig chaos_;

  std::mutex mu_;
  std::vector<RunOutput> outputs_;
  std::vector<std::string> entries_;  // checkpoint entries, by run index
  std::vector<bool> done_;
  std::size_t completed_count_ = 0;
  std::uint64_t config_hash_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t event_budget_trips_ = 0;
  std::uint64_t cancelled_ = 0;
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

ChaosConfig ChaosConfig::from_env() {
  ChaosConfig c;
  const char* env = std::getenv("CITYHUNTER_CHAOS");
  if (env == nullptr || *env == '\0') return c;
  std::string_view rest(env);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view token = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view key = token.substr(0, eq);
    int value = -1;
    try {
      value = std::stoi(std::string(token.substr(eq + 1)));
    } catch (const std::exception&) {
      continue;  // malformed value: leave the knob off
    }
    if (key == "throw") c.throw_run = value;
    else if (key == "hang") c.hang_run = value;
    else if (key == "poison") c.poison_run = value;
    else if (key == "kill_after") c.kill_after = value;
  }
  return c;
}

double retry_backoff_s(std::uint64_t run_seed, std::uint32_t attempt) {
  // Jitter hashed from (seed, attempt): the schedule is a pure function of
  // the run identity, so a re-executed campaign backs off identically — no
  // wallclock, no global RNG.
  const std::uint64_t x = support::splitmix64(
      run_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt));
  const double base = 0.001 * static_cast<double>(1ULL << std::min(attempt, 7u));
  const double jitter =
      base * (static_cast<double>(x >> 11) * 0x1.0p-53);
  return base + jitter;
}

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
  const std::uint64_t expected = campaign_config_hash(world, runs);
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
