#include "client/legit_ap.h"

namespace cityhunter::client {

using dot11::Frame;

LegitimateAp::LegitimateAp(medium::Medium& medium, Config cfg)
    : medium_(medium), cfg_(std::move(cfg)) {}

LegitimateAp::~LegitimateAp() { stop(); }

void LegitimateAp::start() {
  if (started_) return;
  started_ = true;
  radio_ = medium_.attach(cfg_.pos, cfg_.channel, cfg_.tx_power_dbm, this,
                          cfg_.bssid);
}

void LegitimateAp::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  medium_.detach(radio_);
}

void LegitimateAp::on_frame(const Frame& frame, const medium::RxInfo&) {
  if (stopped_) return;
  const auto& to = frame.header.addr1;
  const bool for_us = to == cfg_.bssid || to.is_broadcast();
  if (!for_us) return;

  switch (frame.subtype()) {
    case dot11::MgmtSubtype::kProbeRequest: {
      const auto* body = frame.as<dot11::ProbeRequest>();
      const auto probed = body->ies.ssid_view();  // no temporary string
      // Answer broadcast probes and direct probes for our own SSID.
      if (!body->is_broadcast() && (!probed || *probed != cfg_.ssid)) return;
      dot11::make_probe_response_into(tx_frame_, cfg_.bssid,
                                      frame.header.addr2, cfg_.ssid,
                                      cfg_.channel, cfg_.open, next_seq());
      radio_.transmit(tx_frame_);
      return;
    }
    case dot11::MgmtSubtype::kAuthentication: {
      const auto* body = frame.as<dot11::Authentication>();
      if (body->sequence != 1) return;
      radio_.transmit(dot11::make_auth_response(cfg_.bssid, frame.header.addr2,
                                                dot11::StatusCode::kSuccess,
                                                next_seq()));
      return;
    }
    case dot11::MgmtSubtype::kAssociationRequest: {
      associated_.insert(frame.header.addr2);
      radio_.transmit(dot11::make_assoc_response(
          cfg_.bssid, frame.header.addr2, dot11::StatusCode::kSuccess,
          next_aid_++, next_seq()));
      return;
    }
    case dot11::MgmtSubtype::kDeauthentication:
    case dot11::MgmtSubtype::kDisassociation:
      associated_.erase(frame.header.addr2);
      return;
    default:
      return;
  }
}

}  // namespace cityhunter::client
