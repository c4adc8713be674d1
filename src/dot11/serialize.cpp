#include "dot11/serialize.h"

#include <cstring>

#include "dot11/crc32.h"

namespace cityhunter::dot11 {

namespace {

constexpr std::size_t kMacHeaderSize = 2 + 2 + 6 + 6 + 6 + 2;
constexpr std::size_t kFcsSize = 4;

// Little-endian writers over a buffer sized once from wire_size(). Each
// returns the position just past what it wrote.
std::uint8_t* put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  return p + 2;
}

std::uint8_t* put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
  }
  return p + 4;
}

std::uint8_t* put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
  }
  return p + 8;
}

std::uint8_t* put_mac(std::uint8_t* p, const MacAddress& m) {
  std::memcpy(p, m.octets().data(), m.octets().size());
  return p + m.octets().size();
}

// The IE list's storage is its wire form: one copy.
std::uint8_t* put_ies(std::uint8_t* p, const IeList& ies) {
  const auto wire = ies.wire();
  if (!wire.empty()) std::memcpy(p, wire.data(), wire.size());
  return p + wire.size();
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint16_t u16() {
    if (!need(2)) return 0;
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }

  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    }
    pos_ += 8;
    return v;
  }

  MacAddress mac() {
    if (!need(6)) return {};
    std::array<std::uint8_t, 6> o{};
    for (int i = 0; i < 6; ++i) o[static_cast<std::size_t>(i)] = data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 6;
    return MacAddress(o);
  }

  std::span<const std::uint8_t> rest() {
    auto s = data_.subspan(pos_);
    pos_ = data_.size();
    return s;
  }

 private:
  bool need(std::size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::size_t body_wire_size(const FrameBody& body) {
  struct Visitor {
    std::size_t operator()(const Beacon& b) const {
      return 8 + 2 + 2 + b.ies.wire_size();
    }
    std::size_t operator()(const ProbeRequest& b) const {
      return b.ies.wire_size();
    }
    std::size_t operator()(const ProbeResponse& b) const {
      return 8 + 2 + 2 + b.ies.wire_size();
    }
    std::size_t operator()(const Authentication&) const { return 6; }
    std::size_t operator()(const AssociationRequest& b) const {
      return 2 + 2 + b.ies.wire_size();
    }
    std::size_t operator()(const AssociationResponse& b) const {
      return 2 + 2 + 2 + b.ies.wire_size();
    }
    std::size_t operator()(const Deauthentication&) const { return 2; }
    std::size_t operator()(const Disassociation&) const { return 2; }
  };
  return std::visit(Visitor{}, body);
}

std::uint8_t* serialize_body(std::uint8_t* p, const FrameBody& body) {
  struct Visitor {
    std::uint8_t* p;
    std::uint8_t* operator()(const Beacon& b) const {
      std::uint8_t* q = put_u64(p, b.timestamp_us);
      q = put_u16(q, b.beacon_interval_tu);
      q = put_u16(q, b.capability.bits);
      return put_ies(q, b.ies);
    }
    std::uint8_t* operator()(const ProbeRequest& b) const {
      return put_ies(p, b.ies);
    }
    std::uint8_t* operator()(const ProbeResponse& b) const {
      std::uint8_t* q = put_u64(p, b.timestamp_us);
      q = put_u16(q, b.beacon_interval_tu);
      q = put_u16(q, b.capability.bits);
      return put_ies(q, b.ies);
    }
    std::uint8_t* operator()(const Authentication& b) const {
      std::uint8_t* q = put_u16(p, static_cast<std::uint16_t>(b.algorithm));
      q = put_u16(q, b.sequence);
      return put_u16(q, static_cast<std::uint16_t>(b.status));
    }
    std::uint8_t* operator()(const AssociationRequest& b) const {
      std::uint8_t* q = put_u16(p, b.capability.bits);
      q = put_u16(q, b.listen_interval);
      return put_ies(q, b.ies);
    }
    std::uint8_t* operator()(const AssociationResponse& b) const {
      std::uint8_t* q = put_u16(p, b.capability.bits);
      q = put_u16(q, static_cast<std::uint16_t>(b.status));
      q = put_u16(q, b.association_id);
      return put_ies(q, b.ies);
    }
    std::uint8_t* operator()(const Deauthentication& b) const {
      return put_u16(p, static_cast<std::uint16_t>(b.reason));
    }
    std::uint8_t* operator()(const Disassociation& b) const {
      return put_u16(p, static_cast<std::uint16_t>(b.reason));
    }
  };
  return std::visit(Visitor{p}, body);
}

bool parse_body_into(MgmtSubtype subtype, Reader& r, FrameBody& body) {
  switch (subtype) {
    case MgmtSubtype::kBeacon: {
      auto& b = reuse_body<Beacon>(body);
      b.timestamp_us = r.u64();
      b.beacon_interval_tu = r.u16();
      b.capability.bits = r.u16();
      if (!r.ok()) return false;
      return b.ies.assign_wire(r.rest());
    }
    case MgmtSubtype::kProbeRequest: {
      auto& b = reuse_body<ProbeRequest>(body);
      return b.ies.assign_wire(r.rest());
    }
    case MgmtSubtype::kProbeResponse: {
      auto& b = reuse_body<ProbeResponse>(body);
      b.timestamp_us = r.u64();
      b.beacon_interval_tu = r.u16();
      b.capability.bits = r.u16();
      if (!r.ok()) return false;
      return b.ies.assign_wire(r.rest());
    }
    case MgmtSubtype::kAuthentication: {
      auto& b = reuse_body<Authentication>(body);
      b.algorithm = static_cast<AuthAlgorithm>(r.u16());
      b.sequence = r.u16();
      b.status = static_cast<StatusCode>(r.u16());
      return r.ok();
    }
    case MgmtSubtype::kAssociationRequest: {
      auto& b = reuse_body<AssociationRequest>(body);
      b.capability.bits = r.u16();
      b.listen_interval = r.u16();
      if (!r.ok()) return false;
      return b.ies.assign_wire(r.rest());
    }
    case MgmtSubtype::kAssociationResponse: {
      auto& b = reuse_body<AssociationResponse>(body);
      b.capability.bits = r.u16();
      b.status = static_cast<StatusCode>(r.u16());
      b.association_id = r.u16();
      if (!r.ok()) return false;
      return b.ies.assign_wire(r.rest());
    }
    case MgmtSubtype::kDeauthentication: {
      auto& b = reuse_body<Deauthentication>(body);
      b.reason = static_cast<ReasonCode>(r.u16());
      return r.ok();
    }
    case MgmtSubtype::kDisassociation: {
      auto& b = reuse_body<Disassociation>(body);
      b.reason = static_cast<ReasonCode>(r.u16());
      return r.ok();
    }
  }
  return false;
}

}  // namespace

std::size_t serialize_into(const Frame& frame, std::vector<std::uint8_t>& out) {
  const std::size_t size = wire_size(frame);
  out.resize(size);
  std::uint8_t* p = out.data();
  // Frame control: version 0 (bits 0-1), type 0 = mgmt (bits 2-3),
  // subtype (bits 4-7). Flags octet zero.
  const std::uint16_t fc = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(frame.subtype()) << 4);
  p = put_u16(p, fc);
  p = put_u16(p, frame.header.duration);
  p = put_mac(p, frame.header.addr1);
  p = put_mac(p, frame.header.addr2);
  p = put_mac(p, frame.header.addr3);
  // Sequence control: fragment number 0 in low nibble.
  p = put_u16(p, static_cast<std::uint16_t>(frame.header.sequence << 4));
  p = serialize_body(p, frame.body);
  put_u32(p, crc32(std::span<const std::uint8_t>(out).first(size - kFcsSize)));
  return size;
}

std::vector<std::uint8_t> serialize(const Frame& frame) {
  std::vector<std::uint8_t> out;
  serialize_into(frame, out);
  return out;
}

std::size_t wire_size(const Frame& frame) {
  return kMacHeaderSize + body_wire_size(frame.body) + kFcsSize;
}

bool fcs_ok(std::span<const std::uint8_t> data) {
  if (data.size() < kMacHeaderSize + kFcsSize) return false;
  const std::size_t payload_len = data.size() - kFcsSize;
  std::uint32_t got = 0;
  for (int i = 3; i >= 0; --i) {
    got = (got << 8) | data[payload_len + static_cast<std::size_t>(i)];
  }
  return crc32(data.first(payload_len)) == got;
}

bool decode_into(std::span<const std::uint8_t> data, Frame& slot) {
  if (data.size() < kMacHeaderSize + kFcsSize) return false;
  Reader r(data.first(data.size() - kFcsSize));
  const std::uint16_t fc = r.u16();
  const auto version = fc & 0x3;
  const auto type = (fc >> 2) & 0x3;
  if (version != 0 || type != 0) return false;  // not mgmt
  const auto subtype = static_cast<MgmtSubtype>((fc >> 4) & 0xf);

  slot.header.duration = r.u16();
  slot.header.addr1 = r.mac();
  slot.header.addr2 = r.mac();
  slot.header.addr3 = r.mac();
  slot.header.sequence = static_cast<std::uint16_t>(r.u16() >> 4);
  if (!r.ok()) return false;

  return parse_body_into(subtype, r, slot.body);
}

bool parse_into(std::span<const std::uint8_t> data, Frame& slot) {
  // Verify the FCS first, as hardware does.
  return fcs_ok(data) && decode_into(data, slot);
}

std::optional<Frame> parse(std::span<const std::uint8_t> data) {
  std::optional<Frame> f(std::in_place);
  if (!parse_into(data, *f)) return std::nullopt;
  return f;
}

}  // namespace cityhunter::dot11
