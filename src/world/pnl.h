// Preferred-Network-List generation.
//
// Every hit-rate in the paper reduces to one question: what is in people's
// PNLs? We model a person's PNL as:
//   * one home network (unique SSID, almost always protected),
//   * sometimes a work network (protected),
//   * for "public-Wi-Fi users" (a configurable fraction), 1..k public open
//     SSIDs drawn Zipf-like by *visit propensity* — the ground-truth number
//     of people passing each SSID's AP locations. This is the quantity the
//     attacker's photo heat map (heatmap/) merely *estimates*, so the
//     attack's accuracy depends on how well heat approximates propensity,
//     exactly as in the paper;
//   * venue-local networks for "regulars" of the attacked venue (why the
//     100-nearest-WiGLE seed pays off),
//   * a carrier hotspot SSID preloaded on subscribing iOS devices (Sec V-B).
//
// Social groups (families, friends walking together) share extra mid-tail
// SSIDs — the mechanism behind the paper's freshness observation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.h"
#include "world/ap.h"
#include "world/city.h"

namespace cityhunter::world {

enum class Os { kAndroid, kIos };

enum class PnlOrigin {
  kHome,
  kWork,
  kPublicVisit,
  kVenueLocal,
  kCarrier,
  kGroupShared,
};

struct PnlEntry {
  std::string ssid;
  bool open = false;
  PnlOrigin origin = PnlOrigin::kPublicVisit;

  bool operator==(const PnlEntry&) const = default;
};

struct Person {
  std::uint64_t id = 0;
  Os os = Os::kAndroid;
  std::string carrier;  // empty = no carrier-Wi-Fi subscription
  /// Legacy devices that still disclose their PNL in direct probe requests.
  bool sends_direct_probes = false;
  /// Person uses public Wi-Fi at all. Non-users carry no open public SSIDs,
  /// don't store venue networks, and rarely adopt group-shared ones.
  bool public_wifi_user = false;
  std::uint64_t group_id = 0;  // 0 = walking alone
  std::vector<PnlEntry> pnl;

  bool has_open_entry() const;
  bool knows(const std::string& ssid) const;
};

struct PnlModelConfig {
  double ios_fraction = 0.45;
  /// Fraction of devices still sending direct probes (the paper observes
  /// 85/614 ... 178/1356, i.e. ~13-15%).
  double direct_probe_fraction = 0.14;
  /// Fraction of people with at least one public open SSID in the PNL.
  double public_wifi_user_fraction = 0.14;
  /// Legacy direct-probing devices belong to the least security-conscious
  /// users: they join public Wi-Fi at this multiple of the base rate. This
  /// is what makes their disclosed PNLs worth harvesting (MANA's premise).
  double direct_prober_user_multiplier = 1.3;
  /// Given a public-Wi-Fi user: number of public SSIDs is
  /// 1 + Poisson(mean_extra_public_ssids).
  double mean_extra_public_ssids = 1.1;
  /// Zipf exponent over the propensity-ranked public SSID list.
  double zipf_exponent = 0.75;
  double work_network_fraction = 0.35;
  /// Stale one-off PNL entries (old hotels, friends' flats, conference
  /// networks): unique SSIDs nobody nearby shares. They are what MANA's
  /// first-40 database dump mostly consists of — junk that dilutes it —
  /// while a weight-ranked attacker simply ranks them at the bottom.
  double mean_stale_entries = 1.2;
  double stale_open_fraction = 0.01;
  /// iOS users subscribing to an operator with preloaded hotspot SSIDs.
  double carrier_subscription_fraction = 0.5;
  /// Direct-probe (legacy) devices are old Androids in this model: they
  /// don't carry carrier Wi-Fi profiles.
  /// Group sharing: number of group-common SSIDs and adoption probability.
  int group_common_ssids = 2;
  double group_adopt_prob = 0.6;
  /// Adoption probability for group members who are not public-Wi-Fi users
  /// (dragged along once, rarely stored the network).
  double group_adopt_prob_nonuser = 0.10;
  /// Group-common SSIDs come from the popularity mid-tail (families share
  /// the cafe they went to, not only the chains everyone knows): uniform
  /// rank in [min,max] of the propensity ranking.
  int group_tail_min_rank = 12;
  int group_tail_max_rank = 600;
  /// Probability a family group also shares the home network.
  double group_share_home_prob = 0.5;
};

/// The local flavour of a venue's crowd: people found at a place have
/// histories biased towards networks *near* that place (the campus Wi-Fi,
/// the cafe across the street). This is the correlation that makes both the
/// nearby-100 WiGLE seed and on-site direct-probe learning pay off.
struct Locale {
  /// Open public SSIDs near the venue, ranked by local visit propensity.
  std::vector<std::string> ranked_ssids;
  /// Probability that each public PNL draw comes from the local ranking
  /// instead of the city-wide one.
  double bias = 0.0;
};

class PnlModel {
 public:
  /// `ground_truth` is the full AP population (not the WiGLE snapshot: people
  /// connect to networks whether or not wardrivers mapped them).
  PnlModel(const CityModel& city,
           const std::vector<AccessPointInfo>& ground_truth,
           PnlModelConfig cfg = PnlModelConfig());

  /// Install the locale of the venue whose crowd is being generated.
  void set_locale(Locale locale);

  /// Generate one person walking alone. `venue_ssids` are the SSIDs local to
  /// the attacked venue; `venue_regular_prob` is the chance this person is a
  /// regular who stored one of them.
  Person make_person(support::Rng& rng,
                     const std::vector<std::string>& venue_ssids = {},
                     double venue_regular_prob = 0.0);

  /// Generate a social group of n members with shared entries.
  std::vector<Person> make_group(support::Rng& rng, int n,
                                 const std::vector<std::string>& venue_ssids =
                                     {},
                                 double venue_regular_prob = 0.0);

  /// Public open SSIDs ranked by ground-truth visit propensity (descending).
  const std::vector<std::string>& ranked_public_ssids() const {
    return ranked_public_;
  }

  const PnlModelConfig& config() const { return cfg_; }

 private:
  std::string sample_public_ssid(support::Rng& rng);
  std::string sample_tail_ssid(support::Rng& rng);
  void add_public_entries(support::Rng& rng, Person& p);

  PnlModelConfig cfg_;
  std::vector<std::string> ranked_public_;
  Locale locale_;
  /// Zipf rank tables over ranked_public_ and locale_.ranked_ssids.
  support::ZipfTable public_zipf_;
  support::ZipfTable locale_zipf_;
  std::uint64_t next_person_id_ = 1;
  std::uint64_t next_group_id_ = 1;
  std::uint64_t next_home_id_ = 1;
  double home_open_fraction_ = 0.04;
};

}  // namespace cityhunter::world
