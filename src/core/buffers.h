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
//
// Selection allocates nothing at steady state: SSIDs are database ids, the
// "already picked" sets are epoch-stamped mark arrays over ids, and the
// candidate and ghost-index lists are member scratch reused across calls.
#pragma once

#include <cstdint>
#include <span>
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

  /// Choose up to cfg.budget SSIDs into `out` (cleared first). `records`
  /// is the database's record array; `by_weight` / `by_freshness` are its
  /// sorted id views. `already_sent` holds per-id sent flags (ids past its
  /// end count as unsent), or is null for no untried tracking.
  void select(std::span<const SsidRecord> records,
              std::span<const SsidId> by_weight,
              std::span<const SsidId> by_freshness,
              const std::vector<std::uint8_t>* already_sent,
              std::vector<SsidChoice>& out);

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
  /// Fill cands_ with up to `want` ids from `ranked`, in rank order,
  /// skipping ids marked in used_ and ids already sent.
  void collect(std::span<const SsidId> ranked, std::size_t want,
               const std::vector<std::uint8_t>* already_sent);

  /// Emit the first `main_size` of cands_ under `main_tag`, except that the
  /// lowest-ranked `ghost_picks` of them give way to random picks from the
  /// rest of cands_ (the ghost list) under `ghost_tag`.
  void emit_buffer(std::span<const SsidRecord> records, std::size_t main_size,
                   SelectionTag main_tag, SelectionTag ghost_tag,
                   std::vector<SsidChoice>& out);

  /// Start a new mark epoch over `n` ids: every id reads unmarked.
  void begin_marks(std::size_t n);

  BufferSelectorConfig cfg_;
  support::Rng rng_;
  int pb_size_;
  std::uint64_t pb_grows_ = 0;
  std::uint64_t pb_shrinks_ = 0;

  // Selection scratch. An id is in the "used" (taken by a buffer) or the
  // "chosen" (emitted) set of the current select() iff its stamp equals
  // epoch_; when the epoch wraps, both arrays are cleared.
  std::uint16_t epoch_ = 0;
  std::vector<std::uint16_t> used_;
  std::vector<std::uint16_t> chosen_;
  std::vector<SsidId> cands_;
  std::vector<std::size_t> ghost_idx_;
};

}  // namespace cityhunter::core
