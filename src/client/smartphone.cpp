#include "client/smartphone.h"

#include <algorithm>

namespace cityhunter::client {

using dot11::Frame;
using dot11::MacAddress;

dot11::MacAddress Smartphone::mac_for_person(const world::Person& p) {
  // Locally administered unicast address embedding the person id: stable,
  // unique, and recognisable in logs.
  std::array<std::uint8_t, 6> o{};
  o[0] = 0x02;  // locally administered, unicast
  o[1] = 0xc1;
  std::uint64_t v = p.id;
  for (int i = 5; i >= 2; --i) {
    o[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
  return MacAddress(o);
}

Smartphone::Smartphone(world::Person person, medium::Medium& medium,
                       Position pos, SmartphoneConfig cfg, support::Rng rng,
                       std::optional<dot11::MacAddress> associated_ap)
    : person_(std::move(person)),
      medium_(medium),
      cfg_(cfg),
      rng_(std::move(rng)),
      mac_(mac_for_person(person_)),
      pos_(pos),
      associated_ap_(associated_ap) {}

Smartphone::~Smartphone() { stop(); }

void Smartphone::start() {
  if (started_) return;
  started_ = true;
  // A station: the medium never hands it another phone's broadcast probe
  // request, which on_frame would drop anyway.
  radio_ = medium_.attach(pos_, cfg_.channel, cfg_.tx_power_dbm, this, mac_,
                          medium::RxRole::kStation);
  if (!associated_ap_) {
    schedule_next_scan(
        SimTime::microseconds(static_cast<std::int64_t>(rng_.uniform(
            0.0, static_cast<double>(cfg_.first_scan_delay_max.us())))));
  }
}

void Smartphone::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;  // pending scan events check this when they fire
  ++join_generation_;
  medium_.detach(radio_);
}

void Smartphone::set_position(Position p) {
  pos_ = p;
  if (started_ && !stopped_) radio_.set_position(p);
}

Position Smartphone::position() const { return pos_; }

void Smartphone::schedule_next_scan(SimTime delay) {
  medium_.events().post_in(delay, [this] { begin_scan(); });
}

void Smartphone::begin_scan() {
  if (stopped_ || connected_ || associated_ap_ ||
      join_phase_ != JoinPhase::kIdle) {
    return;
  }
  scanning_ = true;
  ++scans_started_;
  responses_this_scan_ = 0;
  candidates_.clear();
  if (cfg_.randomize_mac_per_scan) {
    // New scan, new identity: the join handshake continues under the scan's
    // MAC (as real randomising devices do pre-association), and the radio
    // now answers to it alone.
    mac_ = dot11::MacAddress::random_local(rng_);
    radio_.set_rx_address(mac_);
  }

  // Legacy devices disclose their PNL via one direct probe per entry; all
  // devices end the cycle with a broadcast probe.
  if (person_.sends_direct_probes) {
    for (const auto& e : person_.pnl) {
      dot11::make_direct_probe_request_into(tx_frame_, mac_, e.ssid,
                                            next_seq());
      radio_.transmit(tx_frame_);
    }
  }
  dot11::make_broadcast_probe_request_into(tx_frame_, mac_, next_seq());
  radio_.transmit(tx_frame_);

  // Listen for MinChannelTime + MaxChannelTime, then evaluate.
  medium_.events().post_in(dot11::kMinChannelTime + dot11::kMaxChannelTime,
                           [this] { end_scan(); });
}

void Smartphone::end_scan() {
  if (stopped_) return;
  scanning_ = false;
  ++scans_completed_;

  // Choose the strongest joinable candidate; the first one wins a tie.
  const Candidate* best = nullptr;
  for (const auto& c : candidates_) {
    if (best == nullptr || c.rssi_dbm > best->rssi_dbm) best = &c;
  }
  if (best != nullptr) {
    try_join(*best);
    return;
  }

  // Nothing joinable this cycle: scan again later.
  const double jitter =
      rng_.uniform(1.0 - cfg_.scan_jitter, 1.0 + cfg_.scan_jitter);
  schedule_next_scan(cfg_.mean_scan_interval * jitter);
}

void Smartphone::try_join(const Candidate& c) {
  join_phase_ = JoinPhase::kAuth;
  join_bssid_ = c.bssid;
  join_pnl_index_ = c.pnl_index;
  radio_.transmit(dot11::make_auth_request(mac_, c.bssid, next_seq()));
  arm_join_timeout();
}

void Smartphone::arm_join_timeout() {
  medium_.events().post_in(cfg_.join_timeout,
                           [this, generation = join_generation_] {
                             if (generation == join_generation_) {
                               handshake_failed();
                             }
                           });
}

void Smartphone::handshake_failed() {
  join_phase_ = JoinPhase::kIdle;
  const double jitter =
      rng_.uniform(1.0 - cfg_.scan_jitter, 1.0 + cfg_.scan_jitter);
  schedule_next_scan(cfg_.mean_scan_interval * jitter);
}

void Smartphone::on_frame(const Frame& frame, const medium::RxInfo& info) {
  if (stopped_) return;
  const auto& to = frame.header.addr1;
  if (!(to == mac_ || to.is_broadcast())) return;  // not for us

  switch (frame.subtype()) {
    case dot11::MgmtSubtype::kProbeResponse: {
      if (!scanning_) return;
      if (responses_this_scan_ >= cfg_.probe_response_budget) return;
      const auto* body = frame.as<dot11::ProbeResponse>();
      const auto ssid = body->ies.ssid_view();  // no temporary string
      if (!ssid) return;
      ++responses_this_scan_;
      // Keep only what end_scan could join: advertised open, and the SSID
      // of an entry stored as open.
      if (body->capability.privacy()) return;
      for (std::size_t i = 0; i < person_.pnl.size(); ++i) {
        const auto& e = person_.pnl[i];
        if (e.open && e.ssid == *ssid) {
          candidates_.push_back(
              Candidate{i, frame.header.addr3, info.rssi_dbm});
          return;
        }
      }
      return;
    }
    case dot11::MgmtSubtype::kAuthentication: {
      if (join_phase_ != JoinPhase::kAuth ||
          !(frame.header.addr3 == join_bssid_)) {
        return;
      }
      const auto* body = frame.as<dot11::Authentication>();
      if (body->sequence != 2) return;
      ++join_generation_;
      if (body->status != dot11::StatusCode::kSuccess) {
        handshake_failed();
        return;
      }
      join_phase_ = JoinPhase::kAssoc;
      radio_.transmit(dot11::make_assoc_request(
          mac_, join_bssid_, person_.pnl[join_pnl_index_].ssid, next_seq()));
      arm_join_timeout();
      return;
    }
    case dot11::MgmtSubtype::kAssociationResponse: {
      if (join_phase_ != JoinPhase::kAssoc ||
          !(frame.header.addr3 == join_bssid_)) {
        return;
      }
      const auto* body = frame.as<dot11::AssociationResponse>();
      ++join_generation_;
      if (body->status != dot11::StatusCode::kSuccess) {
        handshake_failed();
        return;
      }
      join_phase_ = JoinPhase::kIdle;
      connected_ = true;
      lured_ssid_ = person_.pnl[join_pnl_index_].ssid;
      if (on_connected) on_connected(*this);
      return;
    }
    case dot11::MgmtSubtype::kDeauthentication: {
      // Only honoured when it claims to come from our current AP.
      if (associated_ap_ && frame.header.addr3 == *associated_ap_) {
        associated_ap_.reset();
        // Connection lost: start scanning for a replacement immediately.
        schedule_next_scan(SimTime::milliseconds(
            static_cast<std::int64_t>(rng_.uniform(50.0, 500.0))));
      } else if (connected_ && frame.header.addr3 == join_bssid_) {
        connected_ = false;
        lured_ssid_.reset();
        schedule_next_scan(SimTime::milliseconds(
            static_cast<std::int64_t>(rng_.uniform(50.0, 500.0))));
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace cityhunter::client
