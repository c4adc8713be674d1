#include "core/cityhunter.h"

#include "obs/trace.h"

namespace cityhunter::core {

CityHunter::CityHunter(medium::Medium& medium, Config cfg, support::Rng rng)
    : Attacker(medium, cfg.base),
      cfg_(cfg),
      selector_([&] {
        auto b = cfg.buffers;
        b.budget = cfg.base.response_budget;
        return b;
      }(), std::move(rng)) {}

void CityHunter::handle_direct_probe_ssid(const std::string& ssid,
                                          SimTime now) {
  db_.observe_direct(ssid, cfg_.direct_initial_weight, cfg_.direct_seen_bonus,
                     now);
}

void CityHunter::on_hit(const ClientRecord& client, const std::string& ssid,
                        SimTime now) {
  db_.record_hit(ssid, cfg_.hit_weight_bonus, now);
  if (!client.hit_choice) return;
  const SelectionTag tag = client.hit_choice->tag;
  const int old_pb = selector_.pb_size();
  selector_.notify_hit(tag);
  if (trace_ != nullptr) {
    if (tag == SelectionTag::kPopularityGhost ||
        tag == SelectionTag::kFreshnessGhost) {
      trace_->record(now, obs::Category::kAttacker,
                     obs::Event::kGhostPromotion,
                     tag == SelectionTag::kPopularityGhost ? 1 : 2);
    }
    if (selector_.pb_size() != old_pb) {
      trace_->record(now, obs::Category::kAttacker, obs::Event::kPbResize,
                     static_cast<std::uint64_t>(selector_.pb_size()),
                     static_cast<std::uint64_t>(selector_.fb_size()));
    }
  }
}

void CityHunter::refresh_views() {
  if (views_version_ == db_.version()) return;
  // Updated in place from the previous order. The database is replaced
  // only before start(), so the first view, a full sort, is the only one
  // built after a replacement.
  db_.by_weight(by_weight_);
  db_.by_freshness(by_freshness_);
  views_version_ = db_.version();
}

void CityHunter::select_ssids(const ClientRecord& client, int /*budget*/,
                              std::vector<SsidChoice>& out) {
  refresh_views();
  selector_.select(db_.records(), by_weight_, by_freshness_,
                   cfg_.untried_tracking ? &client.sent : nullptr, out);
}

}  // namespace cityhunter::core
