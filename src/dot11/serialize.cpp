#include "dot11/serialize.h"

#include "dot11/crc32.h"

namespace cityhunter::dot11 {

namespace {

constexpr std::size_t kMacHeaderSize = 2 + 2 + 6 + 6 + 6 + 2;
constexpr std::size_t kFcsSize = 4;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_mac(std::vector<std::uint8_t>& out, const MacAddress& m) {
  out.insert(out.end(), m.octets().begin(), m.octets().end());
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

void serialize_body(std::vector<std::uint8_t>& out, const FrameBody& body) {
  struct Visitor {
    std::vector<std::uint8_t>& out;
    void operator()(const Beacon& b) const {
      put_u64(out, b.timestamp_us);
      put_u16(out, b.beacon_interval_tu);
      put_u16(out, b.capability.bits);
      b.ies.serialize_to(out);
    }
    void operator()(const ProbeRequest& b) const { b.ies.serialize_to(out); }
    void operator()(const ProbeResponse& b) const {
      put_u64(out, b.timestamp_us);
      put_u16(out, b.beacon_interval_tu);
      put_u16(out, b.capability.bits);
      b.ies.serialize_to(out);
    }
    void operator()(const Authentication& b) const {
      put_u16(out, static_cast<std::uint16_t>(b.algorithm));
      put_u16(out, b.sequence);
      put_u16(out, static_cast<std::uint16_t>(b.status));
    }
    void operator()(const AssociationRequest& b) const {
      put_u16(out, b.capability.bits);
      put_u16(out, b.listen_interval);
      b.ies.serialize_to(out);
    }
    void operator()(const AssociationResponse& b) const {
      put_u16(out, b.capability.bits);
      put_u16(out, static_cast<std::uint16_t>(b.status));
      put_u16(out, b.association_id);
      b.ies.serialize_to(out);
    }
    void operator()(const Deauthentication& b) const {
      put_u16(out, static_cast<std::uint16_t>(b.reason));
    }
    void operator()(const Disassociation& b) const {
      put_u16(out, static_cast<std::uint16_t>(b.reason));
    }
  };
  std::visit(Visitor{out}, body);
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
  out.clear();
  // Frame control: version 0 (bits 0-1), type 0 = mgmt (bits 2-3),
  // subtype (bits 4-7). Flags octet zero.
  const std::uint16_t fc = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(frame.subtype()) << 4);
  put_u16(out, fc);
  put_u16(out, frame.header.duration);
  put_mac(out, frame.header.addr1);
  put_mac(out, frame.header.addr2);
  put_mac(out, frame.header.addr3);
  // Sequence control: fragment number 0 in low nibble.
  put_u16(out, static_cast<std::uint16_t>(frame.header.sequence << 4));
  serialize_body(out, frame.body);
  put_u32(out, crc32(out));
  return out.size();
}

std::vector<std::uint8_t> serialize(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size(frame));
  serialize_into(frame, out);
  return out;
}

std::size_t wire_size(const Frame& frame) {
  return kMacHeaderSize + body_wire_size(frame.body) + kFcsSize;
}

bool parse_into(std::span<const std::uint8_t> data, Frame& slot) {
  if (data.size() < kMacHeaderSize + kFcsSize) return false;
  // Verify FCS first, as hardware does.
  const std::size_t payload_len = data.size() - kFcsSize;
  const std::uint32_t want = crc32(data.first(payload_len));
  std::uint32_t got = 0;
  for (int i = 3; i >= 0; --i) {
    got = (got << 8) | data[payload_len + static_cast<std::size_t>(i)];
  }
  if (want != got) return false;

  Reader r(data.first(payload_len));
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

std::optional<Frame> parse(std::span<const std::uint8_t> data) {
  std::optional<Frame> f(std::in_place);
  if (!parse_into(data, *f)) return std::nullopt;
  return f;
}

}  // namespace cityhunter::dot11
