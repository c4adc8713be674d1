// De-authentication module (paper §V-B).
//
// Clients associated to a legitimate AP barely probe; forging deauth frames
// in the AP's name forces them back into a scan cycle the attacker can
// answer. One broadcast deauth per target BSSID per round, repeated on a
// configurable interval — the frame is unauthenticated in pre-802.11w
// networks, which is exactly the vulnerability Bellardo & Savage described.
#pragma once

#include <vector>

#include "dot11/frame.h"
#include "medium/medium.h"

namespace cityhunter::core {

/// Lifetime: each round is a plain queue event that captures `this` and a
/// generation number; stop() bumps the generation, so a round pending from
/// before a stop (or a stop and restart) does nothing when it fires. The
/// module must outlive every later run of its medium's event queue.
class DeauthModule {
 public:
  struct Config {
    std::vector<dot11::MacAddress> target_bssids;
    support::SimTime interval = support::SimTime::seconds(20);
  };

  /// `radio` must outlive the module (it is the attacker's radio).
  DeauthModule(medium::Medium& medium, medium::Radio& radio, Config cfg);

  DeauthModule(const DeauthModule&) = delete;
  DeauthModule& operator=(const DeauthModule&) = delete;

  void start();
  void stop();

  std::uint64_t deauths_sent() const { return sent_; }

 private:
  /// Post the next round `delay` from now, tied to the current generation.
  void schedule_round(support::SimTime delay);
  void round();

  medium::Medium& medium_;
  medium::Radio& radio_;
  Config cfg_;
  bool running_ = false;
  std::uint64_t generation_ = 0;
  std::uint64_t sent_ = 0;
  std::uint16_t seq_ = 0;
};

}  // namespace cityhunter::core
