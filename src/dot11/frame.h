// 802.11 management frames.
//
// The simulator exchanges real, serializable management frames: the attacker
// code path is the same one that would feed a monitor-mode NIC — only the
// transport underneath (medium::Medium instead of a driver) differs.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "dot11/ie.h"
#include "dot11/mac_address.h"

namespace cityhunter::dot11 {

/// Management frame subtypes (frame control type = 00).
enum class MgmtSubtype : std::uint8_t {
  kAssociationRequest = 0,
  kAssociationResponse = 1,
  kProbeRequest = 4,
  kProbeResponse = 5,
  kBeacon = 8,
  kDisassociation = 10,
  kAuthentication = 11,
  kDeauthentication = 12,
};

/// Capability Information field bits (subset).
struct CapabilityInfo {
  static constexpr std::uint16_t kEss = 0x0001;
  static constexpr std::uint16_t kIbss = 0x0002;
  static constexpr std::uint16_t kPrivacy = 0x0010;
  static constexpr std::uint16_t kShortPreamble = 0x0020;

  std::uint16_t bits = kEss;

  bool ess() const { return bits & kEss; }
  bool privacy() const { return bits & kPrivacy; }
  void set_privacy(bool on) {
    if (on) {
      bits |= kPrivacy;
    } else {
      bits = static_cast<std::uint16_t>(bits & ~kPrivacy);
    }
  }
  bool operator==(const CapabilityInfo&) const = default;
};

/// Authentication algorithm numbers.
enum class AuthAlgorithm : std::uint16_t {
  kOpenSystem = 0,
  kSharedKey = 1,
  kSae = 3,
};

/// Status codes (subset of Table 9-46).
enum class StatusCode : std::uint16_t {
  kSuccess = 0,
  kUnspecifiedFailure = 1,
  kUnsupportedCapabilities = 10,
  kAuthAlgorithmNotSupported = 13,
};

/// Reason codes for deauthentication/disassociation (subset).
enum class ReasonCode : std::uint16_t {
  kUnspecified = 1,
  kPreviousAuthNoLongerValid = 2,
  kDeauthLeaving = 3,
  kInactivity = 4,
};

/// --- Frame bodies ---

struct Beacon {
  std::uint64_t timestamp_us = 0;   // TSF timer value
  std::uint16_t beacon_interval_tu = 100;  // time units of 1024 us
  CapabilityInfo capability;
  IeList ies;
  bool operator==(const Beacon&) const = default;
};

struct ProbeRequest {
  IeList ies;  // SSID element present; empty SSID body = wildcard/broadcast
  bool operator==(const ProbeRequest&) const = default;

  /// True when the SSID element is absent or zero-length: a broadcast probe
  /// that does not disclose any PNL entry.
  bool is_broadcast() const {
    const auto s = ies.ssid_view();  // no temporary string
    return !s.has_value() || s->empty();
  }
};

struct ProbeResponse {
  std::uint64_t timestamp_us = 0;
  std::uint16_t beacon_interval_tu = 100;
  CapabilityInfo capability;
  IeList ies;
  bool operator==(const ProbeResponse&) const = default;
};

struct Authentication {
  AuthAlgorithm algorithm = AuthAlgorithm::kOpenSystem;
  std::uint16_t sequence = 1;  // 1 = request, 2 = response for open system
  StatusCode status = StatusCode::kSuccess;
  bool operator==(const Authentication&) const = default;
};

struct AssociationRequest {
  CapabilityInfo capability;
  std::uint16_t listen_interval = 10;
  IeList ies;  // SSID + rates
  bool operator==(const AssociationRequest&) const = default;
};

struct AssociationResponse {
  CapabilityInfo capability;
  StatusCode status = StatusCode::kSuccess;
  std::uint16_t association_id = 1;
  IeList ies;
  bool operator==(const AssociationResponse&) const = default;
};

struct Deauthentication {
  ReasonCode reason = ReasonCode::kUnspecified;
  bool operator==(const Deauthentication&) const = default;
};

struct Disassociation {
  ReasonCode reason = ReasonCode::kUnspecified;
  bool operator==(const Disassociation&) const = default;
};

using FrameBody =
    std::variant<Beacon, ProbeRequest, ProbeResponse, Authentication,
                 AssociationRequest, AssociationResponse, Deauthentication,
                 Disassociation>;

/// MAC header fields shared by all management frames (3-address format).
struct MgmtHeader {
  MacAddress addr1;  // receiver / destination
  MacAddress addr2;  // transmitter / source
  MacAddress addr3;  // BSSID
  std::uint16_t sequence = 0;  // sequence number (0..4095); fragment = 0
  std::uint16_t duration = 0;
  bool operator==(const MgmtHeader&) const = default;
};

/// A complete management frame.
struct Frame {
  MgmtHeader header;
  FrameBody body;

  MgmtSubtype subtype() const;

  /// Convenience body accessors; nullptr when the body is a different type.
  template <typename T>
  const T* as() const {
    return std::get_if<T>(&body);
  }
  template <typename T>
  T* as() {
    return std::get_if<T>(&body);
  }

  bool operator==(const Frame&) const = default;
};

/// Re-point a reused frame slot's body at alternative T and return it. When
/// the body already holds a T it is returned as is. Otherwise a fresh T
/// replaces it, and the old alternative's IE list (emptied) moves into the
/// new one, so a pooled slot keeps its IE storage when the subtype changes
/// — e.g. a probe request parsed where a probe response was.
template <typename T>
T& reuse_body(FrameBody& body) {
  if (auto* held = std::get_if<T>(&body)) return *held;
  IeList storage = std::visit(
      [](auto& old) {
        if constexpr (requires { old.ies; }) {
          return std::move(old.ies);
        } else {
          return IeList{};
        }
      },
      body);
  T& fresh = body.emplace<T>();
  if constexpr (requires { fresh.ies; }) {
    fresh.ies = std::move(storage);
    fresh.ies.clear();
  }
  return fresh;
}

/// Human-readable subtype name for logs.
std::string subtype_name(MgmtSubtype s);

/// --- Convenience frame builders used across the simulator ---

/// A broadcast probe request (wildcard SSID) from `client`.
Frame make_broadcast_probe_request(const MacAddress& client,
                                   std::uint16_t seq = 0);

/// A direct probe request asking for a specific SSID.
Frame make_direct_probe_request(const MacAddress& client,
                                std::string_view ssid, std::uint16_t seq = 0);

/// A probe response advertising `ssid` from AP `bssid` to `client`.
/// `open` selects whether the privacy bit and RSN element are absent.
Frame make_probe_response(const MacAddress& bssid, const MacAddress& client,
                          std::string_view ssid, std::uint8_t channel,
                          bool open, std::uint16_t seq = 0);

/// A beacon for `ssid`.
Frame make_beacon(const MacAddress& bssid, std::string_view ssid,
                  std::uint8_t channel, bool open, std::uint64_t timestamp_us,
                  std::uint16_t seq = 0);

/// Open-system authentication request (seq 1) / response (seq 2).
Frame make_auth_request(const MacAddress& client, const MacAddress& bssid,
                        std::uint16_t seq = 0);
Frame make_auth_response(const MacAddress& bssid, const MacAddress& client,
                         StatusCode status, std::uint16_t seq = 0);

/// Association request/response for `ssid`.
Frame make_assoc_request(const MacAddress& client, const MacAddress& bssid,
                         std::string_view ssid, std::uint16_t seq = 0);
Frame make_assoc_response(const MacAddress& bssid, const MacAddress& client,
                          StatusCode status, std::uint16_t aid,
                          std::uint16_t seq = 0);

/// Deauthentication from `src` (spoofable — the attack in Sec V-B forges the
/// AP's address here) to `dst`.
Frame make_deauth(const MacAddress& src, const MacAddress& dst,
                  const MacAddress& bssid, ReasonCode reason,
                  std::uint16_t seq = 0);

/// --- Hot-path builder variants ---
///
/// These rebuild the frame in `out`, reusing its IE backing storage when the
/// body subtype matches the previous use of the slot. The corresponding
/// make_*() builds a fresh Frame through its twin here; the caller keeps
/// ownership of `out` across transmits so per-frame heap traffic drops to
/// zero at steady state (e.g. the attacker's burst of probe responses).

void make_broadcast_probe_request_into(Frame& out, const MacAddress& client,
                                       std::uint16_t seq = 0);

void make_direct_probe_request_into(Frame& out, const MacAddress& client,
                                    std::string_view ssid,
                                    std::uint16_t seq = 0);

void make_probe_response_into(Frame& out, const MacAddress& bssid,
                              const MacAddress& client, std::string_view ssid,
                              std::uint8_t channel, bool open,
                              std::uint16_t seq = 0);

void make_beacon_into(Frame& out, const MacAddress& bssid,
                      std::string_view ssid, std::uint8_t channel, bool open,
                      std::uint64_t timestamp_us, std::uint16_t seq = 0);

}  // namespace cityhunter::dot11
