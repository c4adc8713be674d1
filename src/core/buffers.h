// Popularity/Freshness buffer selection with ghost lists (paper §IV-C).
//
// Under the 40-response budget, City-Hunter fills a Popularity Buffer (PB)
// with the highest-weight untried SSIDs and a Freshness Buffer (FB) with the
// most recently *hitting* untried SSIDs. Each buffer has a ghost list — the
// next `ghost_size` candidates just below the buffer's cut-off. On every
// selection, `ghost_picks` random ghosts from each list replace the lowest
// entries of their buffer, giving the attacker a signal: a hit through a
// PB-ghost SSID means PB is too small (grow it, shrink FB), a hit through an
// FB-ghost means the opposite. This is the adaptation rule of Megiddo and
// Modha's ARC (adaptive replacement cache) transplanted from cache lines to
// SSIDs.
#pragma once

#include <unordered_set>
#include <vector>

#include "core/attacker.h"
#include "core/ssid_db.h"
#include "support/rng.h"

namespace cityhunter::core {

struct BufferSelectorConfig {
  int budget = 40;
  int initial_pb_size = 32;  // FB starts at budget - initial_pb_size
  int ghost_size = 20;
  int ghost_picks = 2;  // the paper's "2 SSIDs (10%) from each ghost list"
  int min_buffer_size = 2;
  // Ablation switches.
  bool use_freshness = true;
  bool use_ghosts = true;
  bool adaptive = true;
};

class BufferSelector {
 public:
  BufferSelector(BufferSelectorConfig cfg, support::Rng rng);

  /// Choose up to cfg.budget SSIDs. `by_weight` / `by_freshness` are the
  /// database's sorted views; `already_sent` may be null (no untried
  /// tracking).
  std::vector<SsidChoice> select(
      const std::vector<const SsidRecord*>& by_weight,
      const std::vector<const SsidRecord*>& by_freshness,
      const std::unordered_set<std::string>* already_sent);

  /// Feed back the selection tag of a successful hit; adjusts the PB/FB
  /// split when the tag is a ghost tag and adaptation is enabled.
  void notify_hit(SelectionTag tag);

  int pb_size() const { return pb_size_; }
  int fb_size() const { return cfg_.budget - pb_size_; }
  const BufferSelectorConfig& config() const { return cfg_; }

  /// Lifetime adaptation counters: ghost-attributed hits that actually moved
  /// the PB/FB split (a hit at a clamp boundary moves nothing).
  std::uint64_t pb_grows() const { return pb_grows_; }
  std::uint64_t pb_shrinks() const { return pb_shrinks_; }

 private:
  /// Collect up to `want` untried records from `ranked` starting at the
  /// cursor position, skipping entries already in `used`.
  static std::vector<const SsidRecord*> collect(
      const std::vector<const SsidRecord*>& ranked, std::size_t want,
      const std::unordered_set<std::string>* already_sent,
      const std::unordered_set<const SsidRecord*>& used);

  void emit_buffer(const std::vector<const SsidRecord*>& candidates,
                   std::size_t main_size, SelectionTag main_tag,
                   SelectionTag ghost_tag, std::vector<SsidChoice>& out);

  BufferSelectorConfig cfg_;
  support::Rng rng_;
  int pb_size_;
  std::uint64_t pb_grows_ = 0;
  std::uint64_t pb_shrinks_ = 0;
};

}  // namespace cityhunter::core
