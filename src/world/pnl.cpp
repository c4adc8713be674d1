#include "world/pnl.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace cityhunter::world {

bool Person::has_open_entry() const {
  return std::any_of(pnl.begin(), pnl.end(),
                     [](const PnlEntry& e) { return e.open; });
}

bool Person::knows(const std::string& ssid) const {
  return std::any_of(pnl.begin(), pnl.end(),
                     [&](const PnlEntry& e) { return e.ssid == ssid; });
}

PnlModel::PnlModel(const CityModel& city,
                   const std::vector<AccessPointInfo>& ground_truth,
                   PnlModelConfig cfg)
    : cfg_(cfg) {
  // Visit propensity of a public open SSID: total people density summed over
  // its AP locations. Chains with many APs in hot areas rank highest;
  // hot-area SSIDs (airport) rank high despite few APs.
  std::map<std::string, double> propensity;
  double open_homes = 0.0;
  double homes = 0.0;
  for (const auto& ap : ground_truth) {
    switch (ap.category) {
      case ApCategory::kResidential:
        homes += 1.0;
        if (ap.open) open_homes += 1.0;
        break;
      case ApCategory::kEnterprise:
        break;  // protected; never attacker-joinable
      case ApCategory::kCarrier:
        break;  // enters PNLs via subscription, not visits
      default:
        if (ap.open) propensity[ap.ssid] += city.density(ap.pos);
    }
  }
  if (homes > 0.0) home_open_fraction_ = open_homes / homes;

  std::vector<std::pair<std::string, double>> ranked(propensity.begin(),
                                                     propensity.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  ranked_public_.reserve(ranked.size());
  for (auto& [ssid, w] : ranked) ranked_public_.push_back(std::move(ssid));
  public_zipf_ = support::ZipfTable(ranked_public_.size(), cfg_.zipf_exponent);
}

void PnlModel::set_locale(Locale locale) {
  locale_ = std::move(locale);
  locale_zipf_ =
      support::ZipfTable(locale_.ranked_ssids.size(), cfg_.zipf_exponent);
}

std::string PnlModel::sample_public_ssid(support::Rng& rng) {
  if (!locale_.ranked_ssids.empty() && rng.chance(locale_.bias)) {
    return locale_.ranked_ssids[locale_zipf_.sample(rng)];
  }
  return ranked_public_[public_zipf_.sample(rng)];
}

std::string PnlModel::sample_tail_ssid(support::Rng& rng) {
  // Groups mostly share *local* history — the cafe around the corner — and
  // those small networks are exactly the ones wardriving under-covers.
  if (!locale_.ranked_ssids.empty() && rng.chance(0.6)) {
    const int n = static_cast<int>(locale_.ranked_ssids.size());
    const int lo = std::min(8, n);
    const int hi = std::min(120, n);
    const int rank = static_cast<int>(rng.uniform_int(lo, hi));
    return locale_.ranked_ssids[static_cast<std::size_t>(rank - 1)];
  }
  const int n = static_cast<int>(ranked_public_.size());
  const int lo = std::min(cfg_.group_tail_min_rank, n);
  const int hi = std::min(cfg_.group_tail_max_rank, n);
  const int rank = static_cast<int>(rng.uniform_int(lo, hi));
  return ranked_public_[static_cast<std::size_t>(rank - 1)];
}

void PnlModel::add_public_entries(support::Rng& rng, Person& p) {
  double user_prob = cfg_.public_wifi_user_fraction;
  if (p.sends_direct_probes) user_prob *= cfg_.direct_prober_user_multiplier;
  p.public_wifi_user = rng.chance(std::min(1.0, user_prob));
  if (!p.public_wifi_user) return;
  const int k = 1 + rng.poisson(cfg_.mean_extra_public_ssids);
  for (int i = 0; i < k; ++i) {
    const std::string ssid = sample_public_ssid(rng);
    if (!p.knows(ssid)) {
      p.pnl.push_back({ssid, true, PnlOrigin::kPublicVisit});
    }
  }
}

Person PnlModel::make_person(support::Rng& rng,
                             const std::vector<std::string>& venue_ssids,
                             double venue_regular_prob) {
  Person p;
  p.id = next_person_id_++;
  p.os = rng.chance(cfg_.ios_fraction) ? Os::kIos : Os::kAndroid;
  p.sends_direct_probes = rng.chance(cfg_.direct_probe_fraction);
  if (p.sends_direct_probes) {
    // Legacy-device population skews old Android in this model.
    p.os = Os::kAndroid;
  }

  // Home network: unique SSID per household.
  char home[32];
  std::snprintf(home, sizeof(home), "HOME-NET-%06llu",
                static_cast<unsigned long long>(next_home_id_++));
  p.pnl.push_back({home, rng.chance(home_open_fraction_), PnlOrigin::kHome});

  if (rng.chance(cfg_.work_network_fraction)) {
    char work[32];
    std::snprintf(work, sizeof(work), "CORP-%03d-5F",
                  static_cast<int>(rng.uniform_int(0, 599)));
    p.pnl.push_back({work, false, PnlOrigin::kWork});
  }

  add_public_entries(rng, p);

  // Stale history: unique networks from past trips and visits.
  const int stale = rng.poisson(cfg_.mean_stale_entries);
  for (int i = 0; i < stale; ++i) {
    char name[40];
    std::snprintf(name, sizeof(name), "Hotel-Guest-%06llX",
                  static_cast<unsigned long long>(
                      rng.uniform_int(0, 0xFFFFFF) |
                      (static_cast<long long>(p.id) << 24)));
    p.pnl.push_back(
        {name, rng.chance(cfg_.stale_open_fraction), PnlOrigin::kPublicVisit});
  }

  if (p.public_wifi_user && !venue_ssids.empty() &&
      rng.chance(venue_regular_prob)) {
    const auto& ssid = venue_ssids[rng.index(venue_ssids.size())];
    if (!p.knows(ssid)) {
      p.pnl.push_back({ssid, true, PnlOrigin::kVenueLocal});
    }
  }

  if (p.os == Os::kIos && !p.sends_direct_probes &&
      rng.chance(cfg_.carrier_subscription_fraction)) {
    static constexpr std::pair<const char*, const char*> kCarriers[] = {
        {"PCCW", "PCCW1x"}, {"Y5", "Y5ZONE"}, {"CMHK", "CMCC-AUTO"}};
    const auto& [carrier, ssid] = kCarriers[rng.index(3)];
    p.carrier = carrier;
    p.pnl.push_back({ssid, true, PnlOrigin::kCarrier});
  }
  return p;
}

std::vector<Person> PnlModel::make_group(
    support::Rng& rng, int n, const std::vector<std::string>& venue_ssids,
    double venue_regular_prob) {
  std::vector<Person> group;
  group.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    group.push_back(make_person(rng, venue_ssids, venue_regular_prob));
  }
  if (n < 2) return group;

  const std::uint64_t gid = next_group_id_++;
  for (auto& p : group) p.group_id = gid;

  // Shared history: the places the group went together. Mid-tail SSIDs —
  // the ones only the freshness mechanism can exploit at scale.
  for (int s = 0; s < cfg_.group_common_ssids; ++s) {
    const std::string ssid = sample_tail_ssid(rng);
    for (auto& p : group) {
      const double adopt = p.public_wifi_user ? cfg_.group_adopt_prob
                                              : cfg_.group_adopt_prob_nonuser;
      if (rng.chance(adopt) && !p.knows(ssid)) {
        p.pnl.push_back({ssid, true, PnlOrigin::kGroupShared});
      }
    }
  }

  // Families share the home network.
  if (rng.chance(cfg_.group_share_home_prob)) {
    const PnlEntry& home = group.front().pnl.front();
    for (std::size_t i = 1; i < group.size(); ++i) {
      auto& pnl = group[i].pnl;
      // Replace their own home entry with the shared one.
      for (auto& e : pnl) {
        if (e.origin == PnlOrigin::kHome) {
          e = home;
          break;
        }
      }
    }
  }
  return group;
}

}  // namespace cityhunter::world
