#include "dot11/ie.h"

#include <iterator>
#include <stdexcept>

namespace cityhunter::dot11 {

std::size_t IeList::append_header(ElementId id, std::size_t len) {
  if (len > 255) {
    throw std::length_error("InformationElement body exceeds 255 octets");
  }
  entries_.push_back({id, static_cast<std::uint32_t>(buf_.size() + 2),
                      static_cast<std::uint8_t>(len)});
  buf_.push_back(static_cast<std::uint8_t>(id));
  buf_.push_back(static_cast<std::uint8_t>(len));
  return buf_.size();
}

void IeList::add(ElementId id, std::span<const std::uint8_t> body) {
  append_header(id, body.size());
  buf_.insert(buf_.end(), body.begin(), body.end());
}

void IeList::add_ssid(std::string_view ssid) {
  if (ssid.size() > 32) {
    throw std::length_error("SSID exceeds 32 octets");
  }
  append_header(ElementId::kSsid, ssid.size());
  buf_.insert(buf_.end(), ssid.begin(), ssid.end());
}

void IeList::add_supported_rates() {
  // The whole element, one constant block: id 1, length 8, then the rates
  // in units of 500 kb/s with the basic-rate flag (MSB) set.
  static constexpr std::uint8_t kElement[] = {
      0x01, 0x08, 0x82, 0x84, 0x8b, 0x96, 0x8c, 0x92, 0x98, 0xa4};
  entries_.push_back({ElementId::kSupportedRates,
                      static_cast<std::uint32_t>(buf_.size() + 2), 8});
  buf_.insert(buf_.end(), std::begin(kElement), std::end(kElement));
}

void IeList::add_ds_param(std::uint8_t channel) {
  add(ElementId::kDsParameterSet, {channel});
}

void IeList::add_rsn_wpa2_psk() {
  // RSN version 1, group cipher CCMP, one pairwise cipher CCMP, one AKM PSK,
  // RSN capabilities 0. OUI 00-0F-AC is the IEEE 802.11 cipher-suite OUI.
  static constexpr std::uint8_t kBody[] = {
      0x01, 0x00,                    // version 1
      0x00, 0x0F, 0xAC, 0x04,        // group cipher: CCMP-128
      0x01, 0x00,                    // pairwise count 1
      0x00, 0x0F, 0xAC, 0x04,        // pairwise: CCMP-128
      0x01, 0x00,                    // AKM count 1
      0x00, 0x0F, 0xAC, 0x02,        // AKM: PSK
      0x00, 0x00,                    // RSN capabilities
  };
  add(ElementId::kRsn, std::span<const std::uint8_t>(kBody));
}

IeView IeList::view(std::size_t i) const {
  const Entry& e = entries_[i];
  return {e.id, std::span<const std::uint8_t>(buf_.data() + e.offset, e.len)};
}

std::optional<IeView> IeList::find(ElementId id) const {
  for (const Entry& e : entries_) {
    if (e.id == id) {
      return IeView{
          e.id, std::span<const std::uint8_t>(buf_.data() + e.offset, e.len)};
    }
  }
  return std::nullopt;
}

std::optional<std::string> IeList::ssid() const {
  const auto v = ssid_view();
  if (!v) return std::nullopt;
  return std::string(*v);
}

std::optional<std::string_view> IeList::ssid_view() const {
  const auto e = find(ElementId::kSsid);
  if (!e) return std::nullopt;
  return std::string_view(reinterpret_cast<const char*>(e->body.data()),
                          e->body.size());
}

std::optional<std::uint8_t> IeList::channel() const {
  const auto e = find(ElementId::kDsParameterSet);
  if (!e || e->body.size() != 1) return std::nullopt;
  return e->body[0];
}

bool IeList::has_rsn() const { return find(ElementId::kRsn).has_value(); }

bool IeList::assign_wire(std::span<const std::uint8_t> data) {
  buf_.clear();
  entries_.clear();
  std::size_t i = 0;
  while (i < data.size()) {
    if (i + 2 > data.size()) return false;  // truncated header
    const auto id = static_cast<ElementId>(data[i]);
    const std::uint8_t len = data[i + 1];
    if (i + 2 + len > data.size()) return false;  // truncated body
    entries_.push_back(
        {id, static_cast<std::uint32_t>(i + 2), len});
    i += 2 + len;
  }
  buf_.assign(data.begin(), data.end());
  return true;
}

std::optional<IeList> IeList::parse(std::span<const std::uint8_t> data) {
  IeList list;
  if (!list.assign_wire(data)) return std::nullopt;
  return list;
}

}  // namespace cityhunter::dot11
