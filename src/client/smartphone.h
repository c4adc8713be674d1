// Smartphone model: the scan / join behaviour the attacker preys on.
//
// Faithful to the observable behaviour the paper relies on:
//   * modern devices send *broadcast* probe requests (no SSID disclosed);
//     legacy devices additionally send one direct probe per PNL entry;
//   * after probing, the device listens kMinChannelTime for a first
//     response and up to kMaxChannelTime more afterwards, and can take in
//     at most ~kProbeResponseBudget responses per scan (§III-A);
//   * it joins a responding network only when the SSID is in its PNL, the
//     stored network is open, and the response also advertises open —
//     join is open-system auth + association, both over real frames;
//   * once associated it stops scanning (§V-B), and resumes scanning if
//     deauthenticated — the lever the deauth extension pulls.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "dot11/frame.h"
#include "dot11/timing.h"
#include "medium/medium.h"
#include "support/rng.h"
#include "world/pnl.h"

namespace cityhunter::client {

using medium::Position;
using support::SimTime;

struct SmartphoneConfig {
  /// Mean interval between scan cycles while unassociated. Calibrated to the
  /// paper's Fig 2: ~70% of subway-passage clients received exactly one
  /// 40-SSID response train (one scan while in range, ~2 min crossing) and
  /// canteen clients averaged ~130 tried SSIDs over a ~25-minute meal.
  /// 2017-era phones with the screen off scan on this order.
  SimTime mean_scan_interval = SimTime::seconds(120);
  /// Jitter factor: actual interval is uniform in mean * [1-j, 1+j].
  double scan_jitter = 0.4;
  /// First scan happens within this delay after start() (phones scan almost
  /// immediately when their surroundings change).
  SimTime first_scan_delay_max = SimTime::seconds(8);
  /// Probe responses accepted per scan (the 40-SSID budget).
  int probe_response_budget = dot11::kProbeResponseBudget;
  /// Handshake timeout before the device gives up on an AP.
  SimTime join_timeout = SimTime::milliseconds(100);
  /// Use a fresh locally administered random MAC for every scan cycle (the
  /// hardening that arrived after the paper: it breaks the attacker's
  /// per-client untried tracking and inflates its client counts).
  bool randomize_mac_per_scan = false;
  double tx_power_dbm = 15.0;
  std::uint8_t channel = 6;
};

/// Lifetime: the phone's timers are plain queue events that capture `this`
/// and check its state when they fire (stop() voids them all), so the phone
/// must outlive every later run of its medium's event queue. Declaring the
/// queue before the phones, and not running it after they are destroyed,
/// meets this.
class Smartphone : public medium::FrameSink {
 public:
  /// The device is created detached; call start() to attach its radio and
  /// begin scan cycles. If `associated_ap` is set, the device starts already
  /// associated to that (legitimate) BSSID and will not scan until
  /// deauthenticated.
  Smartphone(world::Person person, medium::Medium& medium, Position pos,
             SmartphoneConfig cfg, support::Rng rng,
             std::optional<dot11::MacAddress> associated_ap = std::nullopt);
  ~Smartphone() override;

  Smartphone(const Smartphone&) = delete;
  Smartphone& operator=(const Smartphone&) = delete;

  void start();
  /// Detach from the medium (device left the area or sim ended).
  void stop();

  void set_position(Position p);
  Position position() const;

  const world::Person& person() const { return person_; }
  const dot11::MacAddress& mac() const { return mac_; }

  bool connected_to_attacker() const { return connected_; }
  /// SSID through which the device was lured, if any.
  const std::optional<std::string>& lured_ssid() const { return lured_ssid_; }
  bool started() const { return started_; }
  int scans_completed() const { return scans_completed_; }
  bool ever_probed() const { return scans_started_ > 0; }

  /// Invoked once when the device completes association with the attacker.
  std::function<void(Smartphone&)> on_connected;

  // medium::FrameSink
  void on_frame(const dot11::Frame& frame, const medium::RxInfo& info) override;

  /// Deterministic per-person MAC (stable across scans: 2017-era devices;
  /// per-scan randomisation is a documented extension).
  static dot11::MacAddress mac_for_person(const world::Person& p);

 private:
  /// A response this scan could join: it advertised open, and its SSID is
  /// the open PNL entry at `pnl_index`.
  struct Candidate {
    std::size_t pnl_index;
    dot11::MacAddress bssid;
    double rssi_dbm;
  };

  void schedule_next_scan(SimTime delay);
  void begin_scan();
  void end_scan();
  void try_join(const Candidate& c);
  /// Arm the handshake timeout for the current join generation.
  void arm_join_timeout();
  void handshake_failed();

  std::uint16_t next_seq() { return seq_ = (seq_ + 1) & 0x0fff; }

  world::Person person_;
  medium::Medium& medium_;
  SmartphoneConfig cfg_;
  support::Rng rng_;
  dot11::MacAddress mac_;
  medium::Radio radio_;
  dot11::Frame tx_frame_;  // reused probe-request scratch
  Position pos_;

  bool started_ = false;
  bool stopped_ = false;
  bool scanning_ = false;
  bool connected_ = false;
  std::optional<std::string> lured_ssid_;
  std::optional<dot11::MacAddress> associated_ap_;  // legit AP, if any

  enum class JoinPhase { kIdle, kAuth, kAssoc };
  JoinPhase join_phase_ = JoinPhase::kIdle;
  dot11::MacAddress join_bssid_;
  std::size_t join_pnl_index_ = 0;
  /// Bumped by stop() and by each handshake response: a pending join
  /// timeout that captured an older value is stale and does nothing.
  std::uint64_t join_generation_ = 0;

  int responses_this_scan_ = 0;
  std::vector<Candidate> candidates_;
  int scans_started_ = 0;
  int scans_completed_ = 0;
  std::uint16_t seq_ = 0;
};

}  // namespace cityhunter::client
