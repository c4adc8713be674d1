#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_set>
#include <utility>

#include "client/smartphone.h"
#include "core/buffers.h"
#include "core/cityhunter.h"
#include "core/cityhunter_prelim.h"
#include "core/deauth.h"
#include "core/karma.h"
#include "core/mana.h"
#include "core/ssid_db.h"
#include "core/wigle_seed.h"
#include "support/rng.h"

namespace cityhunter::core {
namespace {

using dot11::MacAddress;
using support::Rng;
using support::SimTime;

// --- SsidDatabase ---

TEST(SsidDatabase, AddAndFind) {
  SsidDatabase db;
  EXPECT_TRUE(db.add("a", 10, SsidSource::kWiglePopular, SimTime::zero()));
  EXPECT_FALSE(db.add("a", 5, SsidSource::kDirectProbe, SimTime::zero()));
  EXPECT_EQ(db.size(), 1u);
  const auto* rec = db.find("a");
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->weight, 10.0);  // re-add never downgrades
  EXPECT_EQ(rec->source, SsidSource::kWiglePopular);
  EXPECT_EQ(db.find("zz"), nullptr);
}

TEST(SsidDatabase, ReAddRaisesWeight) {
  SsidDatabase db;
  db.add("a", 5, SsidSource::kDirectProbe, SimTime::zero());
  db.add("a", 50, SsidSource::kWiglePopular, SimTime::zero());
  EXPECT_DOUBLE_EQ(db.find("a")->weight, 50.0);
  // Source stays as first recorded.
  EXPECT_EQ(db.find("a")->source, SsidSource::kDirectProbe);
}

TEST(SsidDatabase, ObserveDirectAddsOrBumps) {
  SsidDatabase db;
  db.observe_direct("new", 60, 15, SimTime::zero());
  EXPECT_DOUBLE_EQ(db.find("new")->weight, 60.0);
  db.observe_direct("new", 60, 15, SimTime::zero());
  EXPECT_DOUBLE_EQ(db.find("new")->weight, 75.0);
}

TEST(SsidDatabase, RecordHitUpdatesEverything) {
  SsidDatabase db;
  db.add("a", 10, SsidSource::kWigleNearby, SimTime::zero());
  db.record_hit("a", 8, SimTime::seconds(30));
  const auto* rec = db.find("a");
  EXPECT_DOUBLE_EQ(rec->weight, 18.0);
  EXPECT_EQ(rec->hits, 1);
  ASSERT_TRUE(rec->last_hit.has_value());
  EXPECT_EQ(*rec->last_hit, SimTime::seconds(30));
  // Hits on unknown SSIDs are ignored, not crashes.
  db.record_hit("unknown", 8, SimTime::seconds(31));
  EXPECT_EQ(db.size(), 1u);
}

/// The database's sorted views as id vectors.
std::vector<SsidId> weight_view(const SsidDatabase& db) {
  std::vector<SsidId> v;
  db.by_weight(v);
  return v;
}
std::vector<SsidId> fresh_view(const SsidDatabase& db) {
  std::vector<SsidId> v;
  db.by_freshness(v);
  return v;
}
const std::string& ssid_of(const SsidDatabase& db, SsidId id) {
  return db.records()[id].ssid;
}

TEST(SsidDatabase, ByWeightOrdering) {
  SsidDatabase db;
  db.add("low", 1, SsidSource::kDirectProbe, SimTime::zero());
  db.add("high", 100, SsidSource::kWiglePopular, SimTime::zero());
  db.add("mid", 50, SsidSource::kWigleNearby, SimTime::zero());
  const auto v = weight_view(db);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(ssid_of(db, v[0]), "high");
  EXPECT_EQ(ssid_of(db, v[1]), "mid");
  EXPECT_EQ(ssid_of(db, v[2]), "low");
}

TEST(SsidDatabase, ByWeightTieBreaksByInsertion) {
  SsidDatabase db;
  db.add("first", 10, SsidSource::kDirectProbe, SimTime::zero());
  db.add("second", 10, SsidSource::kDirectProbe, SimTime::zero());
  const auto v = weight_view(db);
  EXPECT_EQ(ssid_of(db, v[0]), "first");
  EXPECT_EQ(ssid_of(db, v[1]), "second");
}

// A view kept between mutations and brought up to date in place equals a
// fresh full build, whatever moved: new ids, weights bumped up or down the
// table, re-adds, several mutations between refreshes, and ties, which
// insertion order breaks.
TEST(SsidDatabase, ByWeightRefreshMatchesFullBuild) {
  Rng rng(25);
  SsidDatabase db;
  std::vector<SsidId> kept;
  for (int step = 0; step < 2000; ++step) {
    const std::string ssid = "s" + std::to_string(rng.index(150));
    const double weight = 5.0 * static_cast<double>(rng.index(8));
    const SimTime now = SimTime::seconds(step);
    switch (rng.index(4)) {
      case 0: db.add(ssid, weight, SsidSource::kWiglePopular, now); break;
      case 1: db.observe_direct(ssid, weight, 15.0, now); break;
      case 2: db.record_hit(ssid, 8.0, now); break;
      default: db.observe_direct(ssid, weight, -20.0, now); break;
    }
    if (rng.index(3) != 0) continue;
    db.by_weight(kept);
    ASSERT_EQ(kept, weight_view(db)) << "step " << step;
  }
  std::vector<SsidId> want(db.size());
  std::iota(want.begin(), want.end(), SsidId{0});
  std::stable_sort(want.begin(), want.end(), [&](SsidId a, SsidId b) {
    return db.records()[a].weight > db.records()[b].weight;
  });
  db.by_weight(kept);
  EXPECT_EQ(kept, want);

  // A view longer than the database can only come from a replaced one:
  // it is rebuilt, not patched.
  SsidDatabase small;
  small.add("only", 1, SsidSource::kDirectProbe, SimTime::zero());
  db = small;
  db.by_weight(kept);
  EXPECT_EQ(kept, std::vector<SsidId>{0});
}

TEST(SsidDatabase, ByFreshnessOnlyHitRecordsMostRecentFirst) {
  SsidDatabase db;
  db.add("never-hit", 100, SsidSource::kWiglePopular, SimTime::zero());
  db.add("old-hit", 1, SsidSource::kDirectProbe, SimTime::zero());
  db.add("new-hit", 1, SsidSource::kDirectProbe, SimTime::zero());
  db.record_hit("old-hit", 0, SimTime::seconds(10));
  db.record_hit("new-hit", 0, SimTime::seconds(20));
  const auto v = fresh_view(db);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(ssid_of(db, v[0]), "new-hit");
  EXPECT_EQ(ssid_of(db, v[1]), "old-hit");
}

TEST(SsidDatabase, IdsAreRecordIndices) {
  SsidDatabase db;
  db.add("a", 1, SsidSource::kDirectProbe, SimTime::zero());
  db.add("b", 1, SsidSource::kDirectProbe, SimTime::zero());
  db.add("a", 9, SsidSource::kDirectProbe, SimTime::zero());  // re-add
  ASSERT_TRUE(db.find_id("b").has_value());
  EXPECT_EQ(*db.find_id("a"), 0u);
  EXPECT_EQ(*db.find_id("b"), 1u);
  EXPECT_EQ(ssid_of(db, *db.find_id("b")), "b");
  EXPECT_FALSE(db.find_id("zz").has_value());
}

TEST(SsidDatabase, VersionBumpsOnEveryMutation) {
  SsidDatabase db;
  const auto v0 = db.version();
  db.add("a", 1, SsidSource::kDirectProbe, SimTime::zero());
  const auto v1 = db.version();
  EXPECT_NE(v0, v1);
  db.observe_direct("a", 1, 1, SimTime::zero());
  const auto v2 = db.version();
  EXPECT_NE(v1, v2);
  db.record_hit("a", 1, SimTime::zero());
  EXPECT_NE(v2, db.version());
}

TEST(SsidDatabase, CountFromSource) {
  SsidDatabase db;
  db.add("a", 1, SsidSource::kWiglePopular, SimTime::zero());
  db.add("b", 1, SsidSource::kWiglePopular, SimTime::zero());
  db.add("c", 1, SsidSource::kDirectProbe, SimTime::zero());
  EXPECT_EQ(db.count_from(SsidSource::kWiglePopular), 2u);
  EXPECT_EQ(db.count_from(SsidSource::kDirectProbe), 1u);
  EXPECT_EQ(db.count_from(SsidSource::kCarrierSeed), 0u);
}

// --- BufferSelector ---

SsidDatabase weighted_db(int n) {
  SsidDatabase db;
  for (int i = 0; i < n; ++i) {
    db.add("pop-" + std::to_string(i), static_cast<double>(n - i),
           SsidSource::kWiglePopular, SimTime::zero());
  }
  return db;
}

/// Per-id sent flags marking the named SSIDs.
std::vector<std::uint8_t> sent_flags(const SsidDatabase& db,
                                     const std::unordered_set<std::string>& s) {
  std::vector<std::uint8_t> flags(db.size(), 0);
  for (const auto& ssid : s) {
    if (const auto id = db.find_id(ssid)) flags[*id] = 1;
  }
  return flags;
}

/// One selection over the database's current sorted views.
std::vector<SsidChoice> select(BufferSelector& sel, const SsidDatabase& db,
                               const std::vector<std::uint8_t>* sent) {
  std::vector<SsidChoice> out;
  sel.select(db.records(), weight_view(db), fresh_view(db), sent, out);
  return out;
}

TEST(BufferSelector, FillsBudgetFromPopularityWhenNothingFresh) {
  auto db = weighted_db(100);
  BufferSelectorConfig cfg;
  BufferSelector sel(cfg, Rng(1));
  const auto choices = select(sel, db, nullptr);
  EXPECT_EQ(choices.size(), 40u);
  // Highest-weight SSIDs come first (modulo the ghost swap at the tail).
  EXPECT_EQ(ssid_of(db, choices[0].id), "pop-0");
  EXPECT_EQ(choices[0].tag, SelectionTag::kPopularity);
}

TEST(BufferSelector, GhostPicksComeFromBeyondTheBuffer) {
  auto db = weighted_db(100);
  BufferSelectorConfig cfg;
  cfg.use_freshness = false;  // single-buffer: budget = 40, 2 ghost picks
  BufferSelector sel(cfg, Rng(2));
  const auto choices = select(sel, db, nullptr);
  ASSERT_EQ(choices.size(), 40u);
  int ghost_count = 0;
  for (const auto& c : choices) {
    if (c.tag == SelectionTag::kPopularityGhost) {
      ++ghost_count;
      // Ghost candidates are ranks 39..58 (0-based): beyond the main 38.
      const int rank = std::stoi(ssid_of(db, c.id).substr(4));
      EXPECT_GE(rank, 38);
      EXPECT_LT(rank, 58);
    }
  }
  EXPECT_EQ(ghost_count, 2);
}

TEST(BufferSelector, NoGhostsWhenDisabled) {
  auto db = weighted_db(100);
  BufferSelectorConfig cfg;
  cfg.use_ghosts = false;
  BufferSelector sel(cfg, Rng(3));
  for (const auto& c : select(sel, db, nullptr)) {
    EXPECT_NE(c.tag, SelectionTag::kPopularityGhost);
    EXPECT_NE(c.tag, SelectionTag::kFreshnessGhost);
  }
}

TEST(BufferSelector, FreshEntriesFillTheFreshnessBuffer) {
  auto db = weighted_db(100);
  // Make some low-weight SSIDs fresh.
  for (int i = 90; i < 99; ++i) {
    db.record_hit("pop-" + std::to_string(i), 0.0, SimTime::seconds(i));
  }
  BufferSelectorConfig cfg;
  cfg.initial_pb_size = 32;  // FB = 8
  BufferSelector sel(cfg, Rng(4));
  const auto choices = select(sel, db, nullptr);
  EXPECT_EQ(choices.size(), 40u);
  int fresh = 0;
  for (const auto& c : choices) {
    if (c.tag == SelectionTag::kFreshness ||
        c.tag == SelectionTag::kFreshnessGhost) {
      ++fresh;
    }
  }
  EXPECT_GE(fresh, 6);
  EXPECT_LE(fresh, 8);
}

TEST(BufferSelector, NoDuplicateSsidsInOneSelection) {
  auto db = weighted_db(60);
  for (int i = 0; i < 30; ++i) {
    db.record_hit("pop-" + std::to_string(i), 0.0, SimTime::seconds(i));
  }
  BufferSelector sel(BufferSelectorConfig{}, Rng(5));
  const auto choices = select(sel, db, nullptr);
  std::set<std::string> seen;
  for (const auto& c : choices) {
    EXPECT_TRUE(seen.insert(ssid_of(db, c.id)).second)
        << "duplicate " << ssid_of(db, c.id);
  }
}

TEST(BufferSelector, UntriedFilterSkipsSentSsids) {
  auto db = weighted_db(100);
  std::unordered_set<std::string> sent;
  for (int i = 0; i < 40; ++i) sent.insert("pop-" + std::to_string(i));
  BufferSelector sel(BufferSelectorConfig{}, Rng(6));
  const auto flags = sent_flags(db, sent);
  const auto choices = select(sel, db, &flags);
  for (const auto& c : choices) {
    EXPECT_EQ(sent.count(ssid_of(db, c.id)), 0u) << ssid_of(db, c.id);
  }
  EXPECT_EQ(choices.size(), 40u);  // ranks 40..99 remain
}

TEST(BufferSelector, ExhaustedDatabaseYieldsShortSelection) {
  auto db = weighted_db(25);
  std::unordered_set<std::string> sent;
  for (int i = 0; i < 20; ++i) sent.insert("pop-" + std::to_string(i));
  BufferSelector sel(BufferSelectorConfig{}, Rng(7));
  const auto flags = sent_flags(db, sent);
  const auto choices = select(sel, db, &flags);
  EXPECT_EQ(choices.size(), 5u);
}

TEST(BufferSelector, AdaptationGrowsAndShrinksPb) {
  BufferSelectorConfig cfg;
  cfg.initial_pb_size = 20;
  BufferSelector sel(cfg, Rng(8));
  const int pb0 = sel.pb_size();
  sel.notify_hit(SelectionTag::kPopularityGhost);
  EXPECT_EQ(sel.pb_size(), pb0 + 1);
  sel.notify_hit(SelectionTag::kFreshnessGhost);
  sel.notify_hit(SelectionTag::kFreshnessGhost);
  EXPECT_EQ(sel.pb_size(), pb0 - 1);
  // Non-ghost tags do nothing.
  sel.notify_hit(SelectionTag::kPopularity);
  sel.notify_hit(SelectionTag::kFreshness);
  EXPECT_EQ(sel.pb_size(), pb0 - 1);
  EXPECT_EQ(sel.fb_size(), cfg.budget - sel.pb_size());
}

TEST(BufferSelector, AdaptationClampsAtMinBufferSize) {
  BufferSelectorConfig cfg;
  cfg.min_buffer_size = 2;
  BufferSelector sel(cfg, Rng(9));
  for (int i = 0; i < 100; ++i) sel.notify_hit(SelectionTag::kPopularityGhost);
  EXPECT_EQ(sel.pb_size(), cfg.budget - 2);
  for (int i = 0; i < 200; ++i) sel.notify_hit(SelectionTag::kFreshnessGhost);
  EXPECT_EQ(sel.pb_size(), 2);
}

TEST(BufferSelector, AdaptationDisabledIsFrozen) {
  BufferSelectorConfig cfg;
  cfg.adaptive = false;
  cfg.initial_pb_size = 30;
  BufferSelector sel(cfg, Rng(10));
  for (int i = 0; i < 50; ++i) sel.notify_hit(SelectionTag::kFreshnessGhost);
  EXPECT_EQ(sel.pb_size(), 30);
}

// --- BufferSelector against a string-keyed reference ---

/// The selector as it was before SSIDs became database ids: sorted record
/// pointers, string-keyed sent and chosen sets, and a fresh vector per
/// call. Kept verbatim in behaviour as the oracle for the id-based one.
class ReferenceSelector {
 public:
  struct Choice {
    std::string ssid;
    SelectionTag tag;
    SsidSource source;
  };

  ReferenceSelector(BufferSelectorConfig cfg, Rng rng)
      : cfg_(cfg), rng_(std::move(rng)), pb_size_(cfg.initial_pb_size) {
    pb_size_ = std::clamp(pb_size_, cfg_.min_buffer_size,
                          cfg_.budget - cfg_.min_buffer_size);
  }

  std::vector<Choice> select(
      const std::vector<const SsidRecord*>& by_weight,
      const std::vector<const SsidRecord*>& by_freshness,
      const std::unordered_set<std::string>* already_sent) {
    const auto budget = static_cast<std::size_t>(cfg_.budget);
    std::vector<Choice> out;
    std::unordered_set<const SsidRecord*> used;
    const auto pb_target = cfg_.use_freshness
                               ? static_cast<std::size_t>(pb_size_)
                               : budget;
    const auto p_cands = collect(
        by_weight, pb_target + static_cast<std::size_t>(cfg_.ghost_size),
        already_sent, used);
    emit_buffer(p_cands, std::min(pb_target, p_cands.size()),
                SelectionTag::kPopularity, SelectionTag::kPopularityGhost,
                out);
    for (const auto* rec : p_cands) used.insert(rec);
    if (cfg_.use_freshness && out.size() < budget) {
      const std::size_t fresh_want = budget - out.size();
      const auto f_cands = collect(
          by_freshness, fresh_want + static_cast<std::size_t>(cfg_.ghost_size),
          already_sent, used);
      emit_buffer(f_cands, std::min(fresh_want, f_cands.size()),
                  SelectionTag::kFreshness, SelectionTag::kFreshnessGhost, out);
      for (const auto* rec : f_cands) used.insert(rec);
    }
    if (out.size() < budget) {
      std::unordered_set<std::string> chosen;
      for (const auto& c : out) chosen.insert(c.ssid);
      for (const auto* rec : by_weight) {
        if (out.size() >= budget) break;
        if (chosen.count(rec->ssid) != 0) continue;
        if (already_sent != nullptr && already_sent->count(rec->ssid) != 0) {
          continue;
        }
        out.push_back(Choice{rec->ssid, SelectionTag::kPopularity,
                             rec->source});
      }
    }
    return out;
  }

  void notify_hit(SelectionTag tag) {
    if (!cfg_.adaptive) return;
    const int lo = cfg_.min_buffer_size;
    const int hi = cfg_.budget - cfg_.min_buffer_size;
    if (tag == SelectionTag::kPopularityGhost && pb_size_ < hi) ++pb_size_;
    if (tag == SelectionTag::kFreshnessGhost && pb_size_ > lo) --pb_size_;
  }

 private:
  static std::vector<const SsidRecord*> collect(
      const std::vector<const SsidRecord*>& ranked, std::size_t want,
      const std::unordered_set<std::string>* already_sent,
      const std::unordered_set<const SsidRecord*>& used) {
    std::vector<const SsidRecord*> out;
    for (const auto* rec : ranked) {
      if (out.size() >= want) break;
      if (used.count(rec) != 0) continue;
      if (already_sent != nullptr && already_sent->count(rec->ssid) != 0) {
        continue;
      }
      out.push_back(rec);
    }
    return out;
  }

  void emit_buffer(const std::vector<const SsidRecord*>& candidates,
                   std::size_t main_size, SelectionTag main_tag,
                   SelectionTag ghost_tag, std::vector<Choice>& out) {
    std::vector<const SsidRecord*> main(
        candidates.begin(),
        candidates.begin() + static_cast<long>(
                                 std::min(main_size, candidates.size())));
    std::vector<const SsidRecord*> ghosts(
        candidates.begin() + static_cast<long>(main.size()),
        candidates.end());
    std::size_t picks = 0;
    if (cfg_.use_ghosts) {
      picks = std::min({static_cast<std::size_t>(cfg_.ghost_picks),
                        ghosts.size(), main.size()});
    }
    main.resize(main.size() - picks);
    for (const auto* rec : main) {
      out.push_back(Choice{rec->ssid, main_tag, rec->source});
    }
    if (picks > 0) {
      std::vector<std::size_t> idx;
      rng_.sample_indices(ghosts.size(), picks, idx);
      for (const auto i : idx) {
        out.push_back(Choice{ghosts[i]->ssid, ghost_tag, ghosts[i]->source});
      }
    }
  }

  BufferSelectorConfig cfg_;
  Rng rng_;
  int pb_size_;
};

/// Record-pointer views for the reference selector.
std::vector<const SsidRecord*> pointer_view(const SsidDatabase& db,
                                            const std::vector<SsidId>& ids) {
  std::vector<const SsidRecord*> v;
  for (const SsidId id : ids) v.push_back(&db.records()[id]);
  return v;
}

/// Both selectors make one selection over `db`; the results must agree
/// SSID for SSID, tag for tag and source for source.
void expect_same_selection(BufferSelector& sel, ReferenceSelector& ref,
                           const SsidDatabase& db,
                           const std::unordered_set<std::string>* sent) {
  const auto flags = sent ? sent_flags(db, *sent) : std::vector<std::uint8_t>{};
  const auto got = select(sel, db, sent ? &flags : nullptr);
  const auto want = ref.select(pointer_view(db, weight_view(db)),
                               pointer_view(db, fresh_view(db)), sent);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(ssid_of(db, got[i].id), want[i].ssid) << "choice " << i;
    EXPECT_EQ(got[i].tag, want[i].tag) << "choice " << i;
    EXPECT_EQ(got[i].source, want[i].source) << "choice " << i;
  }
}

/// Grow `db` by `n` SSIDs with random weights (ties likely) and sources,
/// and give about a fifth of all records a hit at a random second.
void grow_random(SsidDatabase& db, std::size_t n, Rng& gen) {
  const std::size_t base = db.size();
  for (std::size_t i = 0; i < n; ++i) {
    db.add("ssid-" + std::to_string(base + i),
           static_cast<double>(gen.index(60)),
           static_cast<SsidSource>(gen.index(4)), SimTime::zero());
  }
  for (std::size_t i = 0; i < db.size() / 5; ++i) {
    db.record_hit(ssid_of(db, static_cast<SsidId>(gen.index(db.size()))), 0.0,
                  SimTime::seconds(static_cast<double>(gen.index(300))));
  }
}

TEST(BufferSelector, MatchesStringKeyedReference) {
  Rng gen(16);
  const SelectionTag hit_tags[] = {
      SelectionTag::kPopularity, SelectionTag::kPopularityGhost,
      SelectionTag::kFreshness, SelectionTag::kFreshnessGhost};
  for (int trial = 0; trial < 2000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    BufferSelectorConfig cfg;
    cfg.use_freshness = (trial & 1) != 0;
    cfg.use_ghosts = (trial & 2) != 0;
    cfg.adaptive = (trial & 4) != 0;
    cfg.initial_pb_size = 2 + static_cast<int>(gen.index(37));
    cfg.ghost_size = static_cast<int>(gen.index(25));
    cfg.ghost_picks = static_cast<int>(gen.index(5));

    SsidDatabase db;
    grow_random(db, gen.index(401), gen);
    std::unordered_set<std::string> sent;
    const double sent_share = gen.uniform(0.0, 0.9);
    for (const auto& rec : db.records()) {
      if (gen.chance(sent_share)) sent.insert(rec.ssid);
    }
    const bool tracking = gen.chance(0.8);

    const auto seed = static_cast<std::uint64_t>(trial) + 1000;
    BufferSelector sel(cfg, Rng(seed));
    ReferenceSelector ref(cfg, Rng(seed));
    expect_same_selection(sel, ref, db, tracking ? &sent : nullptr);

    // A hit may move the PB/FB split; the database then grows (and some of
    // the new records hit) before the second selection.
    const SelectionTag tag = hit_tags[gen.index(4)];
    sel.notify_hit(tag);
    ref.notify_hit(tag);
    grow_random(db, gen.index(60), gen);
    for (const auto& rec : db.records()) {
      if (gen.chance(0.1)) sent.insert(rec.ssid);
    }
    expect_same_selection(sel, ref, db, tracking ? &sent : nullptr);

    // Both consumed the same draws: a third selection over a fresh
    // 100-SSID database, whose ghost picks read the next draws, agrees.
    expect_same_selection(sel, ref, weighted_db(100), nullptr);
    if (HasFailure()) return;
  }
}

TEST(BufferSelector, EpochWrapKeepsMatchingReference) {
  // The mark arrays are stamped with a 16-bit epoch, one per selection. The
  // first selection stamps the top SSIDs with epoch 1; for the next 65,535
  // the top ten count as sent, so their stamps go stale. The selection
  // after the wrap, with nothing sent, is the first to read epoch 1 again:
  // had the wrap not cleared the arrays, the stale stamps would hide the
  // top ten from the popularity buffer.
  auto db = weighted_db(45);
  for (int i = 0; i < 10; ++i) {
    db.record_hit("pop-" + std::to_string(i * 4), 0.0, SimTime::seconds(i));
  }
  std::unordered_set<std::string> top_ten;
  for (int i = 0; i < 10; ++i) top_ten.insert("pop-" + std::to_string(i));
  const std::unordered_set<std::string> none;
  const auto top_flags = sent_flags(db, top_ten);
  const auto no_flags = sent_flags(db, none);

  BufferSelector sel(BufferSelectorConfig{}, Rng(5));
  ReferenceSelector ref(BufferSelectorConfig{}, Rng(5));
  const auto by_weight = weight_view(db);
  const auto by_fresh = fresh_view(db);
  const auto p_weight = pointer_view(db, by_weight);
  const auto p_fresh = pointer_view(db, by_fresh);
  std::vector<SsidChoice> got;
  for (int round = 0; round < 65600; ++round) {
    const bool open = round == 0 || round >= 65536;
    sel.select(db.records(), by_weight, by_fresh,
               open ? &no_flags : &top_flags, got);
    const auto want = ref.select(p_weight, p_fresh, open ? &none : &top_ten);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(ssid_of(db, got[i].id), want[i].ssid)
          << "round " << round << ", choice " << i;
      ASSERT_EQ(got[i].tag, want[i].tag) << "round " << round;
    }
  }
}

// --- WiGLE seeding ---

TEST(WigleSeed, SeedsNearbyAndPopularWithRankWeights) {
  std::vector<world::AccessPointInfo> recs;
  auto mk = [&](const std::string& ssid, double x, int copies) {
    for (int i = 0; i < copies; ++i) {
      world::AccessPointInfo ap;
      ap.ssid = ssid;
      ap.pos = {x, 0};
      ap.open = true;
      recs.push_back(ap);
    }
  };
  mk("huge-chain", 5000, 50);
  mk("mid-chain", 5000, 10);
  mk("local-cafe", 5, 1);
  const auto wigle = world::WigleDb::from_records(recs);

  SsidDatabase db;
  WigleSeedConfig cfg;
  cfg.nearby_count = 2;
  cfg.popular_count = 2;
  cfg.ranking = PopularRanking::kApCount;
  seed_from_wigle(db, wigle, nullptr, {0, 0}, cfg, SimTime::zero());

  // Popular: huge-chain (weight 2), mid-chain (weight 1).
  ASSERT_NE(db.find("huge-chain"), nullptr);
  EXPECT_DOUBLE_EQ(db.find("huge-chain")->weight, 2.0);
  EXPECT_EQ(db.find("huge-chain")->source, SsidSource::kWiglePopular);
  // Nearby: local-cafe nearest (weight 2).
  ASSERT_NE(db.find("local-cafe"), nullptr);
  EXPECT_DOUBLE_EQ(db.find("local-cafe")->weight, 2.0);
  EXPECT_EQ(db.find("local-cafe")->source, SsidSource::kWigleNearby);
}

TEST(WigleSeed, HeatRankingRequiresHeatMap) {
  const auto wigle = world::WigleDb::from_records({});
  SsidDatabase db;
  WigleSeedConfig cfg;
  cfg.ranking = PopularRanking::kHeat;
  EXPECT_THROW(
      seed_from_wigle(db, wigle, nullptr, {0, 0}, cfg, SimTime::zero()),
      std::invalid_argument);
}

TEST(WigleSeed, NegativeCountsAreRejected) {
  // A count of -1 used to become SIZE_MAX and seed every free SSID.
  std::vector<world::AccessPointInfo> recs(1);
  recs[0].ssid = "cafe";
  recs[0].open = true;
  const auto wigle = world::WigleDb::from_records(recs);
  const std::vector<heatmap::ScoredSsid> popular{{"cafe", 1.0}};
  const std::vector<std::string> nearby{"cafe"};
  for (const auto& [near, pop] : {std::pair{-1, 2}, std::pair{2, -1}}) {
    SsidDatabase db;
    WigleSeedConfig cfg;
    cfg.nearby_count = near;
    cfg.popular_count = pop;
    cfg.ranking = PopularRanking::kApCount;
    EXPECT_THROW(
        seed_from_wigle(db, wigle, nullptr, {0, 0}, cfg, SimTime::zero()),
        std::invalid_argument);
    EXPECT_THROW(seed_ranked(db, popular, nearby, cfg, SimTime::zero()),
                 std::invalid_argument);
    EXPECT_EQ(db.size(), 0u);
  }
}

TEST(WigleSeed, CarrierSeedAddsWithGivenWeight) {
  SsidDatabase db;
  seed_carrier_ssids(db, {"PCCW1x", "Y5ZONE"}, 200.0, SimTime::zero());
  EXPECT_EQ(db.size(), 2u);
  EXPECT_DOUBLE_EQ(db.find("PCCW1x")->weight, 200.0);
  EXPECT_EQ(db.find("PCCW1x")->source, SsidSource::kCarrierSeed);
}

// --- Attackers against real smartphones ---

class AttackerTest : public ::testing::Test {
 protected:
  AttackerTest() : medium_(events_) {
    base_.bssid = *MacAddress::parse("0a:00:00:00:00:77");
    base_.pos = {0, 0};
  }

  world::Person person(std::uint64_t id, bool direct,
                       std::vector<world::PnlEntry> pnl) {
    world::Person p;
    p.id = id;
    p.sends_direct_probes = direct;
    p.pnl = std::move(pnl);
    return p;
  }

  client::SmartphoneConfig phone_cfg() {
    client::SmartphoneConfig cfg;
    cfg.mean_scan_interval = SimTime::seconds(20);
    cfg.first_scan_delay_max = SimTime::seconds(1);
    return cfg;
  }

  medium::EventQueue events_;
  medium::Medium medium_;
  Attacker::BaseConfig base_;
  Rng rng_{42};
};

TEST_F(AttackerTest, KarmaLuresDirectProberWithOpenEntry) {
  KarmaAttacker karma(medium_, base_);
  karma.start();
  client::Smartphone victim(
      person(1, true, {{"OpenCafe", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::seconds(30));
  EXPECT_TRUE(victim.connected_to_attacker());
  EXPECT_EQ(karma.clients_connected(), 1u);
  const auto& rec = karma.clients().begin()->second;
  EXPECT_TRUE(rec.direct_prober);
  EXPECT_EQ(rec.hit_ssid, "OpenCafe");
  ASSERT_TRUE(rec.hit_choice.has_value());
  EXPECT_EQ(rec.hit_choice->tag, SelectionTag::kDirectReply);
}

TEST_F(AttackerTest, KarmaCannotLureBroadcastClients) {
  KarmaAttacker karma(medium_, base_);
  karma.start();
  client::Smartphone victim(
      person(2, false, {{"OpenCafe", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::minutes(3));
  EXPECT_FALSE(victim.connected_to_attacker());
  EXPECT_EQ(karma.clients_connected(), 0u);
  EXPECT_EQ(karma.clients_seen(), 1u);  // probes were recorded
}

TEST_F(AttackerTest, ManaLearnsFromDirectAndReplaysToBroadcast) {
  ManaAttacker::Config cfg;
  cfg.base = base_;
  ManaAttacker mana(medium_, cfg);
  mana.start();

  // The discloser leaks 'SharedNet'; it cannot join (entry protected).
  client::Smartphone discloser(
      person(3, true, {{"SharedNet", false, world::PnlOrigin::kHome}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("d"));
  discloser.start();
  events_.run_until(SimTime::seconds(15));
  EXPECT_EQ(mana.database().size(), 1u);
  ASSERT_NE(mana.database().find("SharedNet"), nullptr);

  // A broadcast-only victim that stored SharedNet as open gets hit.
  client::Smartphone victim(
      person(4, false, {{"SharedNet", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {6, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::minutes(2));
  EXPECT_TRUE(victim.connected_to_attacker());
  const auto& rec = mana.clients().at(victim.mac());
  ASSERT_TRUE(rec.hit_choice.has_value());
  EXPECT_EQ(rec.hit_choice->tag, SelectionTag::kPlainDump);
  EXPECT_EQ(rec.hit_choice->source, SsidSource::kDirectProbe);
}

TEST_F(AttackerTest, ManaRepeatsTheSameHeadOfDatabase) {
  ManaAttacker::Config cfg;
  cfg.base = base_;
  ManaAttacker mana(medium_, cfg);
  mana.start();
  // Fill the database with 80 junk SSIDs via add().
  for (int i = 0; i < 80; ++i) {
    mana.database().add("junk-" + std::to_string(i), 1.0,
                        SsidSource::kDirectProbe, SimTime::zero());
  }
  // Victim stores junk-60 (beyond the 40-response budget): never reached,
  // no matter how many times it scans.
  client::Smartphone victim(
      person(5, false, {{"junk-60", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::minutes(5));
  EXPECT_FALSE(victim.connected_to_attacker());
  // Whereas a victim of junk-10 connects on the first scan.
  client::Smartphone easy(
      person(6, false, {{"junk-10", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {6, 0}, phone_cfg(), rng_.fork("e"));
  easy.start();
  events_.run_until(SimTime::minutes(7));
  EXPECT_TRUE(easy.connected_to_attacker());
}

TEST_F(AttackerTest, PrelimUntriedSweepEventuallyReachesDeepSsids) {
  CityHunterPrelim::Config cfg;
  cfg.base = base_;
  CityHunterPrelim prelim(medium_, cfg);
  prelim.start();
  for (int i = 0; i < 80; ++i) {
    prelim.database().add("db-" + std::to_string(i), 1.0,
                          SsidSource::kWiglePopular, SimTime::zero());
  }
  // Wherever 'db-60' lands in the hash order, two scans (80 SSIDs) cover
  // the whole 80-entry database.
  client::Smartphone victim(
      person(7, false, {{"db-60", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  // A bystander with no matching PNL keeps scanning: its untried sweep must
  // cover the entire 80-entry database across two scans.
  client::Smartphone bystander(person(70, false, {}), medium_, {6, 0},
                               phone_cfg(), rng_.fork("b"));
  bystander.start();
  events_.run_until(SimTime::minutes(3));
  EXPECT_TRUE(victim.connected_to_attacker());
  const auto& rec = prelim.clients().at(victim.mac());
  EXPECT_EQ(rec.hit_choice->tag, SelectionTag::kUntriedSweep);
  EXPECT_EQ(prelim.clients().at(bystander.mac()).ssids_sent, 80);
}

TEST_F(AttackerTest, CityHunterRanksByWeightAndRecordsHit) {
  CityHunter::Config cfg;
  cfg.base = base_;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  hunter.start();
  for (int i = 0; i < 200; ++i) {
    hunter.database().add("w-" + std::to_string(i),
                          static_cast<double>(200 - i),
                          SsidSource::kWiglePopular, SimTime::zero());
  }
  // Victim knows the top-weight SSID: hit on the very first scan.
  client::Smartphone victim(
      person(8, false, {{"w-0", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::seconds(20));
  EXPECT_TRUE(victim.connected_to_attacker());
  const auto& rec = hunter.clients().at(victim.mac());
  EXPECT_LE(rec.ssids_sent, 40);
  EXPECT_EQ(rec.hit_choice->tag, SelectionTag::kPopularity);
  // The hit bumped the database record.
  EXPECT_EQ(hunter.database().find("w-0")->hits, 1);
  EXPECT_TRUE(hunter.database().find("w-0")->last_hit.has_value());
}

TEST_F(AttackerTest, CityHunterFreshnessReachesCompanions) {
  CityHunter::Config cfg;
  cfg.base = base_;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  hunter.start();
  // 500 popular decoys, plus one mid-tail SSID at the bottom.
  for (int i = 0; i < 500; ++i) {
    hunter.database().add("decoy-" + std::to_string(i),
                          static_cast<double>(500 - i),
                          SsidSource::kWiglePopular, SimTime::zero());
  }
  hunter.database().add("family-cafe", 0.5, SsidSource::kDirectProbe,
                        SimTime::zero());
  // Mark it freshly hit (as if a family member just connected through it).
  hunter.database().record_hit("family-cafe", 0.0, SimTime::zero());

  // The companion's only joinable SSID is family-cafe — rank ~501 by weight,
  // but rank 1 by freshness, so the FB must deliver it within one scan.
  client::Smartphone companion(
      person(9, false,
             {{"family-cafe", true, world::PnlOrigin::kGroupShared}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("c"));
  companion.start();
  events_.run_until(SimTime::seconds(20));
  EXPECT_TRUE(companion.connected_to_attacker());
  const auto& rec = hunter.clients().at(companion.mac());
  EXPECT_TRUE(rec.hit_choice->tag == SelectionTag::kFreshness ||
              rec.hit_choice->tag == SelectionTag::kFreshnessGhost);
}

TEST_F(AttackerTest, CityHunterUntriedTrackingSweepsDeep) {
  CityHunter::Config cfg;
  cfg.base = base_;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  hunter.start();
  for (int i = 0; i < 200; ++i) {
    hunter.database().add("w-" + std::to_string(i),
                          static_cast<double>(200 - i),
                          SsidSource::kWiglePopular, SimTime::zero());
  }
  // Victim knows only rank ~150: needs several scans of untried sweeps.
  client::Smartphone victim(
      person(10, false, {{"w-150", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::minutes(5));
  EXPECT_TRUE(victim.connected_to_attacker());
  EXPECT_GT(hunter.clients().at(victim.mac()).ssids_sent, 100);
}

TEST_F(AttackerTest, CityHunterWithoutUntriedTrackingRepeatsItself) {
  CityHunter::Config cfg;
  cfg.base = base_;
  cfg.untried_tracking = false;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  hunter.start();
  for (int i = 0; i < 200; ++i) {
    hunter.database().add("w-" + std::to_string(i),
                          static_cast<double>(200 - i),
                          SsidSource::kWiglePopular, SimTime::zero());
  }
  client::Smartphone victim(
      person(11, false, {{"w-150", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::minutes(5));
  // Always the same top-40 (minus ghost randomness): w-150 unreachable
  // through the main buffer; only a lucky ghost pick could reach rank 150,
  // and ghosts only cover ranks ~38-58.
  EXPECT_FALSE(victim.connected_to_attacker());
}

TEST_F(AttackerTest, DirectProbeObservationsEnterCityHunterDb) {
  CityHunter::Config cfg;
  cfg.base = base_;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  hunter.start();
  client::Smartphone discloser(
      person(12, true, {{"LeakedNet", false, world::PnlOrigin::kHome}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("d"));
  discloser.start();
  events_.run_until(SimTime::seconds(10));
  const auto* rec = hunter.database().find("LeakedNet");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->source, SsidSource::kDirectProbe);
  EXPECT_DOUBLE_EQ(rec->weight, cfg.direct_initial_weight);
}

TEST_F(AttackerTest, GhostHitAdjustsBufferSplit) {
  CityHunter::Config cfg;
  cfg.base = base_;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  const int pb0 = hunter.selector().pb_size();
  // Simulate the hit path directly through the protected interface by
  // sending a crafted association after an offer; simpler: exercise the
  // selector's notify contract via a synthetic ClientRecord in on_hit is
  // private — instead verify through selector() directly.
  hunter.selector().notify_hit(SelectionTag::kFreshnessGhost);
  EXPECT_EQ(hunter.selector().pb_size(), pb0 - 1);
}

// --- DeauthModule ---

TEST_F(AttackerTest, DeauthModuleBroadcastsPerTarget) {
  // Two inputs on fresh queues: a plain stop, and a stop followed at once
  // by a restart. The restart must not revive the stopped chain's pending
  // round (due at 40 s), which would add 2 deauths at 40 s and 50 s each.
  for (const bool restart : {false, true}) {
    SCOPED_TRACE(restart ? "stop then restart at 35 s" : "stop at 35 s");
    medium::EventQueue events;
    medium::Medium medium(events);
    KarmaAttacker attacker(medium, base_);
    attacker.start();
    DeauthModule::Config dcfg;
    dcfg.target_bssids = {*MacAddress::parse("02:00:00:00:00:01"),
                          *MacAddress::parse("02:00:00:00:00:02")};
    dcfg.interval = SimTime::seconds(10);
    DeauthModule deauth(medium, attacker.radio(), dcfg);
    deauth.start();
    events.run_until(SimTime::seconds(35));
    // Rounds at t=0, 10, 20, 30 -> 4 rounds x 2 targets.
    EXPECT_EQ(deauth.deauths_sent(), 8u);
    deauth.stop();
    if (restart) {
      deauth.start();
      events.run_until(SimTime::seconds(58));
      // Rounds at t=35, 45, 55 only.
      EXPECT_EQ(deauth.deauths_sent(), 14u);
    } else {
      events.run_until(SimTime::minutes(2));
      EXPECT_EQ(deauth.deauths_sent(), 8u);
    }
  }
}

TEST(SelectionTagNames, AllDistinct) {
  std::set<std::string> names;
  for (const auto t :
       {SelectionTag::kDirectReply, SelectionTag::kPlainDump,
        SelectionTag::kUntriedSweep, SelectionTag::kPopularity,
        SelectionTag::kPopularityGhost, SelectionTag::kFreshness,
        SelectionTag::kFreshnessGhost}) {
    names.insert(to_string(t));
  }
  EXPECT_EQ(names.size(), 7u);
}

TEST(SsidSourceNames, AllDistinct) {
  std::set<std::string> names;
  for (const auto s : {SsidSource::kWigleNearby, SsidSource::kWiglePopular,
                       SsidSource::kDirectProbe, SsidSource::kCarrierSeed}) {
    names.insert(to_string(s));
  }
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace cityhunter::core
