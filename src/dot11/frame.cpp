#include "dot11/frame.h"

namespace cityhunter::dot11 {

MgmtSubtype Frame::subtype() const {
  struct Visitor {
    MgmtSubtype operator()(const Beacon&) const { return MgmtSubtype::kBeacon; }
    MgmtSubtype operator()(const ProbeRequest&) const {
      return MgmtSubtype::kProbeRequest;
    }
    MgmtSubtype operator()(const ProbeResponse&) const {
      return MgmtSubtype::kProbeResponse;
    }
    MgmtSubtype operator()(const Authentication&) const {
      return MgmtSubtype::kAuthentication;
    }
    MgmtSubtype operator()(const AssociationRequest&) const {
      return MgmtSubtype::kAssociationRequest;
    }
    MgmtSubtype operator()(const AssociationResponse&) const {
      return MgmtSubtype::kAssociationResponse;
    }
    MgmtSubtype operator()(const Deauthentication&) const {
      return MgmtSubtype::kDeauthentication;
    }
    MgmtSubtype operator()(const Disassociation&) const {
      return MgmtSubtype::kDisassociation;
    }
  };
  return std::visit(Visitor{}, body);
}

std::string subtype_name(MgmtSubtype s) {
  switch (s) {
    case MgmtSubtype::kAssociationRequest: return "assoc-req";
    case MgmtSubtype::kAssociationResponse: return "assoc-resp";
    case MgmtSubtype::kProbeRequest: return "probe-req";
    case MgmtSubtype::kProbeResponse: return "probe-resp";
    case MgmtSubtype::kBeacon: return "beacon";
    case MgmtSubtype::kDisassociation: return "disassoc";
    case MgmtSubtype::kAuthentication: return "auth";
    case MgmtSubtype::kDeauthentication: return "deauth";
  }
  return "unknown";
}

Frame make_broadcast_probe_request(const MacAddress& client,
                                   std::uint16_t seq) {
  Frame f;
  make_broadcast_probe_request_into(f, client, seq);
  return f;
}

Frame make_direct_probe_request(const MacAddress& client,
                                std::string_view ssid, std::uint16_t seq) {
  Frame f;
  make_direct_probe_request_into(f, client, ssid, seq);
  return f;
}

Frame make_probe_response(const MacAddress& bssid, const MacAddress& client,
                          std::string_view ssid, std::uint8_t channel,
                          bool open, std::uint16_t seq) {
  Frame f;
  make_probe_response_into(f, bssid, client, ssid, channel, open, seq);
  return f;
}

Frame make_beacon(const MacAddress& bssid, std::string_view ssid,
                  std::uint8_t channel, bool open, std::uint64_t timestamp_us,
                  std::uint16_t seq) {
  Frame f;
  make_beacon_into(f, bssid, ssid, channel, open, timestamp_us, seq);
  return f;
}

Frame make_auth_request(const MacAddress& client, const MacAddress& bssid,
                        std::uint16_t seq) {
  Authentication body;
  body.sequence = 1;
  return Frame{{bssid, client, bssid, seq}, body};
}

Frame make_auth_response(const MacAddress& bssid, const MacAddress& client,
                         StatusCode status, std::uint16_t seq) {
  Authentication body;
  body.sequence = 2;
  body.status = status;
  return Frame{{client, bssid, bssid, seq}, body};
}

Frame make_assoc_request(const MacAddress& client, const MacAddress& bssid,
                         std::string_view ssid, std::uint16_t seq) {
  AssociationRequest body;
  body.ies.add_ssid(ssid);
  body.ies.add_supported_rates();
  return Frame{{bssid, client, bssid, seq}, std::move(body)};
}

Frame make_assoc_response(const MacAddress& bssid, const MacAddress& client,
                          StatusCode status, std::uint16_t aid,
                          std::uint16_t seq) {
  AssociationResponse body;
  body.status = status;
  body.association_id = aid;
  body.ies.add_supported_rates();
  return Frame{{client, bssid, bssid, seq}, std::move(body)};
}

Frame make_deauth(const MacAddress& src, const MacAddress& dst,
                  const MacAddress& bssid, ReasonCode reason,
                  std::uint16_t seq) {
  Deauthentication body;
  body.reason = reason;
  return Frame{{dst, src, bssid, seq}, body};
}

void make_broadcast_probe_request_into(Frame& out, const MacAddress& client,
                                       std::uint16_t seq) {
  out.header = {MacAddress::broadcast(), client, MacAddress::broadcast(), seq};
  auto& body = reuse_body<ProbeRequest>(out.body);
  body.ies.clear();
  body.ies.add_ssid("");  // wildcard SSID
  body.ies.add_supported_rates();
}

void make_direct_probe_request_into(Frame& out, const MacAddress& client,
                                    std::string_view ssid, std::uint16_t seq) {
  out.header = {MacAddress::broadcast(), client, MacAddress::broadcast(), seq};
  auto& body = reuse_body<ProbeRequest>(out.body);
  body.ies.clear();
  body.ies.add_ssid(ssid);
  body.ies.add_supported_rates();
}

void make_probe_response_into(Frame& out, const MacAddress& bssid,
                              const MacAddress& client, std::string_view ssid,
                              std::uint8_t channel, bool open,
                              std::uint16_t seq) {
  out.header = {client, bssid, bssid, seq};
  auto& body = reuse_body<ProbeResponse>(out.body);
  body.timestamp_us = 0;
  body.beacon_interval_tu = 100;
  body.capability = CapabilityInfo{};
  body.capability.set_privacy(!open);
  body.ies.clear();
  body.ies.add_ssid(ssid);
  body.ies.add_supported_rates();
  body.ies.add_ds_param(channel);
  if (!open) body.ies.add_rsn_wpa2_psk();
}

void make_beacon_into(Frame& out, const MacAddress& bssid,
                      std::string_view ssid, std::uint8_t channel, bool open,
                      std::uint64_t timestamp_us, std::uint16_t seq) {
  out.header = {MacAddress::broadcast(), bssid, bssid, seq};
  auto& body = reuse_body<Beacon>(out.body);
  body.timestamp_us = timestamp_us;
  body.beacon_interval_tu = 100;
  body.capability = CapabilityInfo{};
  body.capability.set_privacy(!open);
  body.ies.clear();
  body.ies.add_ssid(ssid);
  body.ies.add_supported_rates();
  body.ies.add_ds_param(channel);
  if (!open) body.ies.add_rsn_wpa2_psk();
}

}  // namespace cityhunter::dot11
