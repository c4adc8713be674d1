#include "core/buffers.h"

#include <algorithm>

namespace cityhunter::core {

namespace {

/// True when per-id flags `sent` (null: no untried tracking) mark `id`.
bool was_sent(const std::vector<std::uint8_t>* sent, SsidId id) {
  return sent != nullptr && id < sent->size() && (*sent)[id] != 0;
}

}  // namespace

BufferSelector::BufferSelector(BufferSelectorConfig cfg, support::Rng rng)
    : cfg_(cfg), rng_(std::move(rng)), pb_size_(cfg.initial_pb_size) {
  pb_size_ = std::clamp(pb_size_, cfg_.min_buffer_size,
                        cfg_.budget - cfg_.min_buffer_size);
}

void BufferSelector::begin_marks(std::size_t n) {
  if (used_.size() < n) {
    used_.resize(n, 0);
    chosen_.resize(n, 0);
  }
  if (++epoch_ == 0) {
    // Wrapped: stamps left from 65,535 selections ago would alias.
    std::fill(used_.begin(), used_.end(), std::uint16_t{0});
    std::fill(chosen_.begin(), chosen_.end(), std::uint16_t{0});
    epoch_ = 1;
  }
}

void BufferSelector::collect(std::span<const SsidId> ranked, std::size_t want,
                             const std::vector<std::uint8_t>* already_sent) {
  cands_.clear();
  for (const SsidId id : ranked) {
    if (cands_.size() >= want) break;
    if (used_[id] == epoch_ || was_sent(already_sent, id)) continue;
    cands_.push_back(id);
  }
}

void BufferSelector::emit_buffer(std::span<const SsidRecord> records,
                                 std::size_t main_size, SelectionTag main_tag,
                                 SelectionTag ghost_tag,
                                 std::vector<SsidChoice>& out) {
  const std::size_t n_main = std::min(main_size, cands_.size());
  const std::size_t n_ghosts = cands_.size() - n_main;

  std::size_t picks = 0;
  if (cfg_.use_ghosts) {
    picks = std::min(
        {static_cast<std::size_t>(cfg_.ghost_picks), n_ghosts, n_main});
  }
  // Replace the lowest-ranked `picks` of the buffer with random ghosts.
  for (std::size_t i = 0; i < n_main - picks; ++i) {
    const SsidId id = cands_[i];
    out.push_back(SsidChoice{id, main_tag, records[id].source});
  }
  if (picks > 0) {
    rng_.sample_indices(n_ghosts, picks, ghost_idx_);
    for (const std::size_t i : ghost_idx_) {
      const SsidId id = cands_[n_main + i];
      out.push_back(SsidChoice{id, ghost_tag, records[id].source});
    }
  }
}

void BufferSelector::select(std::span<const SsidRecord> records,
                            std::span<const SsidId> by_weight,
                            std::span<const SsidId> by_freshness,
                            const std::vector<std::uint8_t>* already_sent,
                            std::vector<SsidChoice>& out) {
  const auto budget = static_cast<std::size_t>(cfg_.budget);
  out.clear();
  begin_marks(records.size());

  // Popularity buffer first: an SSID that is both popular and fresh belongs
  // to (and is attributed to) PB; FB captures the fresh-but-not-popular
  // tail — the companion effect the paper's freshness mechanism targets.
  const auto pb_target = cfg_.use_freshness
                             ? static_cast<std::size_t>(pb_size())
                             : budget;
  collect(by_weight, pb_target + static_cast<std::size_t>(cfg_.ghost_size),
          already_sent);
  emit_buffer(records, pb_target, SelectionTag::kPopularity,
              SelectionTag::kPopularityGhost, out);
  for (const SsidId id : cands_) used_[id] = epoch_;

  // Freshness buffer fills the remaining budget (all of it when the
  // popularity side ran out of untried SSIDs).
  if (cfg_.use_freshness && out.size() < budget) {
    const std::size_t fresh_want = budget - out.size();
    collect(by_freshness,
            fresh_want + static_cast<std::size_t>(cfg_.ghost_size),
            already_sent);
    emit_buffer(records, fresh_want, SelectionTag::kFreshness,
                SelectionTag::kFreshnessGhost, out);
  }

  // Early in a deployment few SSIDs have hit yet: backfill any freshness
  // deficit with more popularity candidates rather than waste budget.
  if (out.size() < budget) {
    for (const SsidChoice& c : out) chosen_[c.id] = epoch_;
    for (const SsidId id : by_weight) {
      if (out.size() >= budget) break;
      if (chosen_[id] == epoch_ || was_sent(already_sent, id)) continue;
      out.push_back(SsidChoice{id, SelectionTag::kPopularity,
                               records[id].source});
    }
  }
}

void BufferSelector::notify_hit(SelectionTag tag) {
  if (!cfg_.adaptive) return;
  const int lo = cfg_.min_buffer_size;
  const int hi = cfg_.budget - cfg_.min_buffer_size;
  if (tag == SelectionTag::kPopularityGhost) {
    if (pb_size_ < hi) {
      ++pb_size_;
      ++pb_grows_;
    }
  } else if (tag == SelectionTag::kFreshnessGhost) {
    if (pb_size_ > lo) {
      --pb_size_;
      ++pb_shrinks_;
    }
  }
}

}  // namespace cityhunter::core
