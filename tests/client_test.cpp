#include <gtest/gtest.h>

#include "client/legit_ap.h"
#include "client/smartphone.h"
#include "dot11/timing.h"
#include "medium/medium.h"
#include "support/rng.h"

namespace cityhunter::client {
namespace {

using dot11::Frame;
using dot11::MacAddress;
using support::Rng;
using support::SimTime;

world::Person make_person(bool direct_probes,
                          std::vector<world::PnlEntry> pnl,
                          std::uint64_t id = 1) {
  world::Person p;
  p.id = id;
  p.sends_direct_probes = direct_probes;
  p.pnl = std::move(pnl);
  return p;
}

/// A scripted rogue AP: mimics every probed SSID as open and accepts every
/// handshake (a minimal KARMA).
class ScriptedRogue : public medium::FrameSink {
 public:
  ScriptedRogue(medium::Medium& medium, MacAddress bssid)
      : medium_(medium), bssid_(bssid) {
    radio_ = medium_.attach({5, 0}, 6, 20.0, this);
  }
  ~ScriptedRogue() override { medium_.detach(radio_); }

  /// SSIDs to offer on any broadcast probe (as open networks).
  std::vector<std::string> broadcast_menu;
  /// If false, never answers broadcast probes (KARMA style).
  bool mimic_direct = true;
  bool advertise_open = true;
  /// If false, authenticates clients but never answers their association
  /// requests, so every join attempt ends in the handshake timeout.
  bool answer_association = true;

  std::vector<std::string> probed_ssids;
  int broadcast_probes = 0;
  std::vector<MacAddress> associated;

  void on_frame(const Frame& frame, const medium::RxInfo&) override {
    switch (frame.subtype()) {
      case dot11::MgmtSubtype::kProbeRequest: {
        const auto* body = frame.as<dot11::ProbeRequest>();
        if (body->is_broadcast()) {
          ++broadcast_probes;
          for (const auto& ssid : broadcast_menu) {
            radio_.transmit(dot11::make_probe_response(
                bssid_, frame.header.addr2, ssid, 6, advertise_open, seq_++));
          }
        } else if (mimic_direct) {
          probed_ssids.push_back(*body->ies.ssid());
          radio_.transmit(dot11::make_probe_response(
              bssid_, frame.header.addr2, *body->ies.ssid(), 6,
              advertise_open, seq_++));
        }
        return;
      }
      case dot11::MgmtSubtype::kAuthentication:
        if (frame.header.addr1 == bssid_) {
          radio_.transmit(dot11::make_auth_response(
              bssid_, frame.header.addr2, dot11::StatusCode::kSuccess,
              seq_++));
        }
        return;
      case dot11::MgmtSubtype::kAssociationRequest:
        if (frame.header.addr1 == bssid_ && answer_association) {
          associated.push_back(frame.header.addr2);
          radio_.transmit(dot11::make_assoc_response(
              bssid_, frame.header.addr2, dot11::StatusCode::kSuccess, 1,
              seq_++));
        }
        return;
      default:
        return;
    }
  }

  medium::Medium& medium_;
  MacAddress bssid_;
  medium::Radio radio_;
  std::uint16_t seq_ = 0;
};

class SmartphoneTest : public ::testing::Test {
 protected:
  SmartphoneTest()
      : medium_(events_),
        bssid_(*MacAddress::parse("0a:00:00:00:00:99")),
        rogue_(medium_, bssid_) {}

  SmartphoneConfig phone_cfg() {
    SmartphoneConfig cfg;
    cfg.mean_scan_interval = SimTime::seconds(30);
    cfg.first_scan_delay_max = SimTime::seconds(2);
    return cfg;
  }

  medium::EventQueue events_;
  medium::Medium medium_;
  MacAddress bssid_;
  ScriptedRogue rogue_;
  Rng rng_{1};
};

TEST_F(SmartphoneTest, ModernDeviceSendsOnlyBroadcastProbes) {
  auto person = make_person(false, {{"SomeNet", true,
                                     world::PnlOrigin::kPublicVisit}});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::seconds(10));
  EXPECT_GE(rogue_.broadcast_probes, 1);
  EXPECT_TRUE(rogue_.probed_ssids.empty());
}

TEST_F(SmartphoneTest, LegacyDeviceDisclosesPnl) {
  auto person = make_person(
      true, {{"HiddenHome", false, world::PnlOrigin::kHome},
             {"WorkNet", false, world::PnlOrigin::kWork}});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::seconds(10));
  ASSERT_GE(rogue_.probed_ssids.size(), 2u);
  EXPECT_EQ(rogue_.probed_ssids[0], "HiddenHome");
  EXPECT_EQ(rogue_.probed_ssids[1], "WorkNet");
}

TEST_F(SmartphoneTest, JoinsOpenPnlNetworkFromBroadcastMenu) {
  rogue_.broadcast_menu = {"Starbucks", "Other"};
  auto person = make_person(false, {{"Starbucks", true,
                                     world::PnlOrigin::kPublicVisit}});
  bool connected_cb = false;
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"));
  phone.on_connected = [&](Smartphone&) { connected_cb = true; };
  phone.start();
  events_.run_until(SimTime::seconds(10));
  EXPECT_TRUE(phone.connected_to_attacker());
  EXPECT_TRUE(connected_cb);
  EXPECT_EQ(phone.lured_ssid().value_or(""), "Starbucks");
  ASSERT_EQ(rogue_.associated.size(), 1u);
  EXPECT_EQ(rogue_.associated[0], phone.mac());
}

TEST_F(SmartphoneTest, UnansweredAssociationFailsOnceAndRescans) {
  // Authentication succeeds, association is never answered. Each attempt
  // must fail once, 100 ms after the association request, and the phone
  // goes back to one scan per interval. Had the authentication response
  // not voided the first timeout, it would fail the attempt a second time
  // and start a second scan chain.
  rogue_.broadcast_menu = {"CafeNet"};
  rogue_.answer_association = false;
  auto cfg = phone_cfg();
  cfg.scan_jitter = 0.0;  // exactly 30 s between attempts
  Smartphone phone(make_person(false, {{"CafeNet", true,
                                        world::PnlOrigin::kPublicVisit}}),
                   medium_, {0, 0}, cfg, rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::minutes(5));
  EXPECT_FALSE(phone.connected_to_attacker());
  // First scan within 2 s, then one per 30 s plus ~0.12 s of listening
  // and handshake: scans 0..9 fit in 5 minutes.
  EXPECT_EQ(phone.scans_completed(), 10);
  EXPECT_EQ(rogue_.broadcast_probes, 10);
  EXPECT_TRUE(rogue_.associated.empty());
}

TEST_F(SmartphoneTest, IgnoresUnknownSsids) {
  rogue_.broadcast_menu = {"NotInPnl-1", "NotInPnl-2"};
  auto person = make_person(false, {{"MyNet", true,
                                     world::PnlOrigin::kPublicVisit}});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::minutes(2));
  EXPECT_FALSE(phone.connected_to_attacker());
}

TEST_F(SmartphoneTest, WillNotJoinNetworkStoredAsProtected) {
  // PNL has the SSID but as a protected network: an open evil twin is a
  // security downgrade the client rejects.
  rogue_.broadcast_menu = {"CorpNet"};
  auto person = make_person(false, {{"CorpNet", false,
                                     world::PnlOrigin::kWork}});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::minutes(2));
  EXPECT_FALSE(phone.connected_to_attacker());
}

TEST_F(SmartphoneTest, WillNotJoinProtectedResponseForOpenEntry) {
  rogue_.broadcast_menu = {"FreeNet"};
  rogue_.advertise_open = false;  // response carries privacy bit + RSN
  auto person = make_person(false, {{"FreeNet", true,
                                     world::PnlOrigin::kPublicVisit}});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::minutes(2));
  EXPECT_FALSE(phone.connected_to_attacker());
}

TEST_F(SmartphoneTest, StopsScanningAfterConnecting) {
  rogue_.broadcast_menu = {"Net"};
  auto person = make_person(false, {{"Net", true,
                                     world::PnlOrigin::kPublicVisit}});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::seconds(10));
  ASSERT_TRUE(phone.connected_to_attacker());
  const int probes_at_connect = rogue_.broadcast_probes;
  events_.run_until(SimTime::minutes(5));
  EXPECT_EQ(rogue_.broadcast_probes, probes_at_connect);
}

TEST_F(SmartphoneTest, RespectsProbeResponseBudget) {
  // Offer 100 unknown SSIDs: the device must only take in ~40 per scan.
  for (int i = 0; i < 100; ++i) {
    rogue_.broadcast_menu.push_back("Filler-" + std::to_string(i));
  }
  auto person = make_person(false, {{"Wanted", true,
                                     world::PnlOrigin::kPublicVisit}});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::seconds(8));
  // One scan completed; can't verify internals directly, but the rogue can
  // append the wanted SSID at position 90 and the client must NOT join.
  EXPECT_FALSE(phone.connected_to_attacker());
  rogue_.broadcast_menu.push_back("Wanted");  // position 101: never delivered
  events_.run_until(SimTime::minutes(3));
  EXPECT_FALSE(phone.connected_to_attacker());
}

TEST_F(SmartphoneTest, ScanCountsAdvance) {
  auto person = make_person(false, {{"x", true,
                                     world::PnlOrigin::kPublicVisit}});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"));
  phone.start();
  EXPECT_FALSE(phone.ever_probed());
  events_.run_until(SimTime::minutes(3));
  EXPECT_TRUE(phone.ever_probed());
  EXPECT_GE(phone.scans_completed(), 3);
}

TEST_F(SmartphoneTest, StopDetachesAndSilences) {
  auto person = make_person(false, {{"x", true,
                                     world::PnlOrigin::kPublicVisit}});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::seconds(5));
  const int before = rogue_.broadcast_probes;
  phone.stop();
  events_.run_until(SimTime::minutes(3));
  EXPECT_EQ(rogue_.broadcast_probes, before);
}

TEST_F(SmartphoneTest, MacDerivedFromPersonIsStable) {
  auto person = make_person(false, {}, 4242);
  const auto m1 = Smartphone::mac_for_person(person);
  const auto m2 = Smartphone::mac_for_person(person);
  EXPECT_EQ(m1, m2);
  EXPECT_TRUE(m1.is_locally_administered());
  auto other = make_person(false, {}, 4243);
  EXPECT_NE(m1, Smartphone::mac_for_person(other));
}

TEST_F(SmartphoneTest, PreAssociatedDeviceDoesNotProbeUntilDeauth) {
  const auto ap_bssid = *MacAddress::parse("02:00:00:00:00:01");
  auto person = make_person(false, {{"VenueNet", true,
                                     world::PnlOrigin::kVenueLocal}});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"),
                   ap_bssid);
  phone.start();
  events_.run_until(SimTime::minutes(2));
  EXPECT_EQ(rogue_.broadcast_probes, 0);

  // Forge a deauth in the AP's name: the device must resume scanning.
  auto tx = medium_.attach({2, 0}, 6, 20.0);
  tx.transmit(dot11::make_deauth(ap_bssid, MacAddress::broadcast(), ap_bssid,
                                 dot11::ReasonCode::kDeauthLeaving));
  events_.run_until(SimTime::minutes(4));
  EXPECT_GT(rogue_.broadcast_probes, 0);
}

TEST_F(SmartphoneTest, DeauthFromWrongBssidIsIgnored) {
  const auto ap_bssid = *MacAddress::parse("02:00:00:00:00:01");
  const auto other_bssid = *MacAddress::parse("02:00:00:00:00:02");
  auto person = make_person(false, {});
  Smartphone phone(person, medium_, {0, 0}, phone_cfg(), rng_.fork("p"),
                   ap_bssid);
  phone.start();
  auto tx = medium_.attach({2, 0}, 6, 20.0);
  tx.transmit(dot11::make_deauth(other_bssid, MacAddress::broadcast(),
                                 other_bssid,
                                 dot11::ReasonCode::kDeauthLeaving));
  events_.run_until(SimTime::minutes(3));
  EXPECT_EQ(rogue_.broadcast_probes, 0);
}

TEST_F(SmartphoneTest, RandomizedMacChangesPerScan) {
  auto cfg = phone_cfg();
  cfg.randomize_mac_per_scan = true;
  auto person = make_person(false, {{"nothing-known", true,
                                     world::PnlOrigin::kPublicVisit}});
  Smartphone phone(person, medium_, {0, 0}, cfg, rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::seconds(5));
  const auto mac_scan1 = phone.mac();
  events_.run_until(SimTime::minutes(1));
  ASSERT_GE(phone.scans_completed(), 2);
  EXPECT_NE(phone.mac(), mac_scan1);
  EXPECT_TRUE(phone.mac().is_locally_administered());
}

TEST_F(SmartphoneTest, RandomizedMacStillCompletesHandshake) {
  rogue_.broadcast_menu = {"Known-Open"};
  auto cfg = phone_cfg();
  cfg.randomize_mac_per_scan = true;
  auto person = make_person(false, {{"Known-Open", true,
                                     world::PnlOrigin::kPublicVisit}});
  Smartphone phone(person, medium_, {0, 0}, cfg, rng_.fork("p"));
  phone.start();
  events_.run_until(SimTime::seconds(10));
  EXPECT_TRUE(phone.connected_to_attacker());
  // The association used the scan's randomized MAC.
  ASSERT_EQ(rogue_.associated.size(), 1u);
  EXPECT_EQ(rogue_.associated[0], phone.mac());
  EXPECT_NE(rogue_.associated[0], Smartphone::mac_for_person(person));
}

TEST(SmartphoneRoleTest, PhonesHearNoOtherPhonesProbeRequests) {
  // A phone registers as a station, and a station's MAC discards probe
  // requests: the medium hands each phone's probes to the monitor in range
  // and to no other phone.
  medium::EventQueue events;
  medium::Medium medium(events);
  struct Monitor : medium::FrameSink {
    std::uint64_t probes = 0;
    void on_frame(const Frame& frame, const medium::RxInfo&) override {
      if (frame.subtype() == dot11::MgmtSubtype::kProbeRequest) ++probes;
    }
  } monitor;
  medium.attach({0, 0}, 6, 0.0, &monitor);
  SmartphoneConfig cfg;
  cfg.first_scan_delay_max = SimTime::seconds(1);
  Rng rng(3);
  Smartphone legacy(make_person(true, {{"Home", true, world::PnlOrigin::kHome}},
                                1),
                    medium, {1, 0}, cfg, rng.fork("legacy"));
  Smartphone modern(make_person(false, {}, 2), medium, {2, 0}, cfg,
                    rng.fork("modern"));
  legacy.start();
  modern.start();
  events.run_until(SimTime::seconds(10));
  EXPECT_EQ(monitor.probes, 3u);  // one direct and two broadcast probes
  EXPECT_EQ(medium.deliveries(), monitor.probes);
}

// --- LegitimateAp ---

TEST(LegitimateApTest, AnswersProbesAndAssociates) {
  medium::EventQueue events;
  medium::Medium medium(events);
  Rng rng(2);

  LegitimateAp::Config cfg;
  cfg.ssid = "VenueNet";
  cfg.bssid = *MacAddress::parse("02:00:00:00:00:10");
  cfg.pos = {10, 0};
  LegitimateAp ap(medium, cfg);
  ap.start();

  world::Person person;
  person.id = 7;
  person.pnl = {{"VenueNet", true, world::PnlOrigin::kVenueLocal}};
  SmartphoneConfig pcfg;
  pcfg.first_scan_delay_max = SimTime::seconds(1);
  Smartphone phone(person, medium, {0, 0}, pcfg, rng.fork("p"));
  phone.start();

  events.run_until(SimTime::seconds(10));
  EXPECT_TRUE(phone.connected_to_attacker());  // "attacker" = any rogue/AP
  EXPECT_EQ(ap.associated_count(), 1u);
  EXPECT_TRUE(ap.is_associated(phone.mac()));
}

TEST(LegitimateApTest, IgnoresDirectProbesForOtherSsids) {
  medium::EventQueue events;
  medium::Medium medium(events);
  Rng rng(3);

  LegitimateAp::Config cfg;
  cfg.ssid = "VenueNet";
  cfg.bssid = *MacAddress::parse("02:00:00:00:00:10");
  cfg.pos = {10, 0};
  LegitimateAp ap(medium, cfg);
  ap.start();

  // A phone probing for a different SSID gets nothing back.
  world::Person person;
  person.id = 8;
  person.sends_direct_probes = true;
  person.pnl = {{"SomethingElse", true, world::PnlOrigin::kPublicVisit}};
  SmartphoneConfig pcfg;
  pcfg.first_scan_delay_max = SimTime::seconds(1);
  Smartphone phone(person, medium, {0, 0}, pcfg, rng.fork("p"));
  phone.start();
  events.run_until(SimTime::minutes(1));
  EXPECT_FALSE(phone.connected_to_attacker());
}

TEST(LegitimateApTest, DeauthRemovesAssociation) {
  medium::EventQueue events;
  medium::Medium medium(events);
  Rng rng(4);

  LegitimateAp::Config cfg;
  cfg.ssid = "VenueNet";
  cfg.bssid = *MacAddress::parse("02:00:00:00:00:10");
  cfg.pos = {10, 0};
  LegitimateAp ap(medium, cfg);
  ap.start();

  world::Person person;
  person.id = 9;
  person.pnl = {{"VenueNet", true, world::PnlOrigin::kVenueLocal}};
  SmartphoneConfig pcfg;
  pcfg.first_scan_delay_max = SimTime::seconds(1);
  Smartphone phone(person, medium, {0, 0}, pcfg, rng.fork("p"));
  phone.start();
  events.run_until(SimTime::seconds(10));
  ASSERT_EQ(ap.associated_count(), 1u);

  auto tx = medium.attach({0, 0}, 6, 20.0);
  tx.transmit(dot11::make_deauth(phone.mac(), cfg.bssid, cfg.bssid,
                                 dot11::ReasonCode::kDeauthLeaving));
  events.run_until(SimTime::seconds(12));
  EXPECT_EQ(ap.associated_count(), 0u);
}

}  // namespace
}  // namespace cityhunter::client
