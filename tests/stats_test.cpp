#include <gtest/gtest.h>

#include "core/karma.h"
#include "stats/campaign.h"
#include "stats/report.h"

namespace cityhunter::stats {
namespace {

using core::ClientRecord;
using core::SelectionTag;
using core::SsidSource;
using dot11::MacAddress;
using support::SimTime;

/// Attacker stub exposing a hand-built client registry.
class FakeAttacker : public core::KarmaAttacker {
 public:
  FakeAttacker(medium::Medium& medium, core::Attacker::BaseConfig cfg)
      : KarmaAttacker(medium, cfg) {}
};

class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest() : medium_(events_) {
    core::Attacker::BaseConfig cfg;
    cfg.bssid = *MacAddress::parse("0a:00:00:00:00:01");
    attacker_ = std::make_unique<FakeAttacker>(medium_, cfg);
    attacker_->start();  // attaches the radio the response paths transmit on
  }

  /// Feed synthetic frames through the attacker to populate its registry in
  /// a controlled way: a direct or broadcast probe, optionally followed by
  /// the association that marks a hit.
  void add_client(std::uint64_t id, bool direct, bool connected,
                  const std::string& hit_ssid = "",
                  std::optional<std::string> offered_ssid = std::nullopt,
                  SimTime when = SimTime::zero()) {
    (void)when;
    MacAddress mac = mac_of(id);
    if (direct) {
      attacker_->on_frame(dot11::make_direct_probe_request(mac, "probe-x"),
                          {});
    } else {
      attacker_->on_frame(dot11::make_broadcast_probe_request(mac), {});
    }
    if (offered_ssid) {
      // Emulate the response-train bookkeeping by injecting the offer via a
      // forged direct probe for that SSID (records into `offered`)...
      // Simpler and honest: drive the real path. The base class fills
      // `offered` when *it* responds; for KARMA that's the direct path only.
      // For breakdown tests we instead associate through the real handshake
      // and patch the choice by re-probing the SSID directly.
      attacker_->on_frame(
          dot11::make_direct_probe_request(mac, *offered_ssid), {});
    }
    if (connected) {
      attacker_->on_frame(
          dot11::make_auth_request(mac, attacker_->bssid()), {});
      attacker_->on_frame(
          dot11::make_assoc_request(mac, attacker_->bssid(), hit_ssid), {});
    }
  }

  static MacAddress mac_of(std::uint64_t id) {
    std::array<std::uint8_t, 6> o{0x02, 0x00, 0, 0, 0,
                                  static_cast<std::uint8_t>(id)};
    return MacAddress(o);
  }

  medium::EventQueue events_;
  medium::Medium medium_;
  std::unique_ptr<FakeAttacker> attacker_;
};

TEST_F(CampaignTest, CountsCategoriesAndRates) {
  add_client(1, true, true, "probe-x");     // direct, connected
  add_client(2, true, false);               // direct, not connected
  add_client(3, false, false);              // broadcast, not connected
  add_client(4, false, false);
  const auto r = analyze(*attacker_, "test");
  EXPECT_EQ(r.total_clients, 4u);
  EXPECT_EQ(r.direct_clients, 2u);
  EXPECT_EQ(r.broadcast_clients, 2u);
  EXPECT_EQ(r.direct_connected, 1u);
  EXPECT_EQ(r.broadcast_connected, 0u);
  EXPECT_DOUBLE_EQ(r.h(), 0.25);
  EXPECT_DOUBLE_EQ(r.h_b(), 0.0);
}

TEST_F(CampaignTest, EmptyCampaignIsAllZero) {
  const auto r = analyze(*attacker_, "empty");
  EXPECT_EQ(r.total_clients, 0u);
  EXPECT_DOUBLE_EQ(r.h(), 0.0);
  EXPECT_DOUBLE_EQ(r.h_b(), 0.0);
  EXPECT_DOUBLE_EQ(r.mean_ssids_sent_connected(), 0.0);
}

TEST_F(CampaignTest, DirectProberStaysDirectEvenIfItAlsoBroadcasts) {
  const auto mac = mac_of(9);
  attacker_->on_frame(dot11::make_broadcast_probe_request(mac), {});
  attacker_->on_frame(dot11::make_direct_probe_request(mac, "x"), {});
  const auto r = analyze(*attacker_, "t");
  EXPECT_EQ(r.direct_clients, 1u);
  EXPECT_EQ(r.broadcast_clients, 0u);
}

TEST_F(CampaignTest, WindowRatesBucketByFirstSeen) {
  // Client 1 appears at t=0 (window 0); client 2 at t=3min (window 1).
  add_client(1, false, false);
  events_.run_until(SimTime::minutes(3));
  add_client(2, false, false);
  const auto windows =
      realtime_hb(*attacker_, SimTime::minutes(2), SimTime::minutes(6));
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].broadcast_clients, 1u);
  EXPECT_EQ(windows[1].broadcast_clients, 1u);
  EXPECT_EQ(windows[2].broadcast_clients, 0u);
  EXPECT_EQ(windows[0].start, SimTime::zero());
  EXPECT_EQ(windows[1].start, SimTime::minutes(2));
}

TEST_F(CampaignTest, WindowRatesRejectDegenerateWindow) {
  add_client(1, false, false);
  // A non-positive window defines no rate; guard instead of dividing by
  // zero (an infinite loop / empty-modulo before the fix).
  EXPECT_TRUE(
      realtime_hb(*attacker_, SimTime::zero(), SimTime::minutes(6)).empty());
  EXPECT_TRUE(realtime_hb(*attacker_, SimTime::seconds(-1), SimTime::minutes(6))
                  .empty());
}

TEST_F(CampaignTest, WindowRateComputesFraction) {
  WindowRate w;
  w.broadcast_clients = 4;
  w.broadcast_connected = 1;
  EXPECT_DOUBLE_EQ(w.rate(), 0.25);
  WindowRate empty;
  EXPECT_DOUBLE_EQ(empty.rate(), 0.0);
}

TEST(CampaignResult, RatioHelpers) {
  CampaignResult r;
  r.hits_from_wigle = 35;
  r.hits_from_direct_db = 10;
  EXPECT_DOUBLE_EQ(r.wigle_to_direct_ratio(), 3.5);
  r.hits_via_popularity = 63;
  r.hits_via_freshness = 10;
  EXPECT_DOUBLE_EQ(r.popularity_to_freshness_ratio(), 6.3);
  CampaignResult zero;
  EXPECT_DOUBLE_EQ(zero.wigle_to_direct_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(zero.popularity_to_freshness_ratio(), 0.0);
}

TEST(CampaignResult, MeanSsidsSent) {
  CampaignResult r;
  r.ssids_sent_connected = {100, 150, 200};
  EXPECT_DOUBLE_EQ(r.mean_ssids_sent_connected(), 150.0);
}

TEST(Report, ComparisonTableMatchesPaperColumns) {
  CampaignResult karma;
  karma.label = "KARMA";
  karma.total_clients = 614;
  karma.direct_clients = 85;
  karma.broadcast_clients = 529;
  karma.direct_connected = 24;
  const auto table = comparison_table({karma});
  EXPECT_NE(table.find("Attack"), std::string::npos);
  EXPECT_NE(table.find("Total probes"), std::string::npos);
  EXPECT_NE(table.find("KARMA"), std::string::npos);
  EXPECT_NE(table.find("614"), std::string::npos);
  EXPECT_NE(table.find("85/529"), std::string::npos);
  EXPECT_NE(table.find("24 (direct); 0 (broadcast)"), std::string::npos);
  EXPECT_NE(table.find("3.9%"), std::string::npos);
}

TEST(Report, SummaryLine) {
  CampaignResult r;
  r.label = "X";
  r.total_clients = 100;
  r.direct_clients = 20;
  r.broadcast_clients = 80;
  r.direct_connected = 5;
  r.broadcast_connected = 8;
  const auto line = summary_line(r);
  EXPECT_NE(line.find("X: 100 clients"), std::string::npos);
  EXPECT_NE(line.find("h=13.0%"), std::string::npos);
  EXPECT_NE(line.find("h_b=10.0%"), std::string::npos);
}

}  // namespace
}  // namespace cityhunter::stats
