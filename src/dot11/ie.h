// 802.11 information elements (IEs): the TLV blobs carried in management
// frame bodies. We implement the elements the attack traffic actually uses
// (SSID, supported rates, DS parameter set, RSN) plus a generic container so
// unknown elements round-trip through parse/serialize untouched.
//
// Storage is a single contiguous backing buffer holding the exact wire TLV
// bytes (id, length, body per element) plus a flat (id, offset, len) entry
// table — one allocation per list instead of one per element body, and the
// buffer doubles as the serialized form: wire() is the bytes a frame
// copies, wire_size() is their length, and assign_wire() re-parses into the
// same storage without reallocating. This is what keeps the medium's
// transmit→parse hot path allocation-free at steady state.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cityhunter::dot11 {

/// Element IDs from IEEE Std 802.11-2016 Table 9-77 (subset).
enum class ElementId : std::uint8_t {
  kSsid = 0,
  kSupportedRates = 1,
  kDsParameterSet = 3,
  kTim = 5,
  kCountry = 7,
  kErp = 42,
  kRsn = 48,
  kExtendedSupportedRates = 50,
  kHtCapabilities = 45,
  kVendorSpecific = 221,
};

/// Borrowed view of one element inside an IeList. Valid until the list is
/// mutated or destroyed.
struct IeView {
  ElementId id{};
  std::span<const std::uint8_t> body;
};

/// An ordered list of elements, as they appear in a frame body.
class IeList {
 public:
  IeList() = default;

  /// Append a raw element. Throws std::length_error if body > 255 octets.
  void add(ElementId id, std::span<const std::uint8_t> body);
  /// Overloads so brace-lists and rvalue vectors keep working at call sites.
  void add(ElementId id, const std::vector<std::uint8_t>& body) {
    add(id, std::span<const std::uint8_t>(body));
  }
  void add(ElementId id, std::initializer_list<std::uint8_t> body) {
    add(id, std::span<const std::uint8_t>(body.begin(), body.size()));
  }

  /// Drop every element but keep the backing storage for reuse.
  void clear() {
    buf_.clear();
    entries_.clear();
  }

  /// --- Typed constructors for the elements the simulator uses ---

  /// SSID element. Empty string = wildcard SSID (broadcast probe request).
  void add_ssid(std::string_view ssid);

  /// The 802.11b/g supported rates element: 1, 2, 5.5, 11, 6, 9, 12 and
  /// 18 Mb/s in units of 500 kb/s, basic-rate bit set on each.
  void add_supported_rates();

  /// DS parameter set (current channel).
  void add_ds_param(std::uint8_t channel);

  /// Minimal RSN element advertising WPA2-PSK/CCMP. Presence of this element
  /// marks a protected network; open APs omit it.
  void add_rsn_wpa2_psk();

  /// --- Accessors ---

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Element at position `i` (insertion order), i < size().
  IeView view(std::size_t i) const;

  /// First element with the given id, if present.
  std::optional<IeView> find(ElementId id) const;

  /// SSID decoded from the SSID element, if present. The empty string means
  /// a wildcard SSID.
  std::optional<std::string> ssid() const;

  /// Non-allocating SSID accessor for hot paths: a view into the backing
  /// buffer, valid until the list is mutated.
  std::optional<std::string_view> ssid_view() const;

  std::optional<std::uint8_t> channel() const;

  /// True if an RSN element is present (network is protected).
  bool has_rsn() const;

  /// --- Wire format ---

  /// Serialized octet length.
  std::size_t wire_size() const { return buf_.size(); }

  /// The serialized TLV bytes (this IS the storage — no copy).
  std::span<const std::uint8_t> wire() const { return buf_; }

  /// Parse elements until the span is exhausted. Returns nullopt on a
  /// truncated element.
  static std::optional<IeList> parse(std::span<const std::uint8_t> data);

  /// In-place variant of parse(): validates and copies `data` into this
  /// list's backing storage, reusing capacity. Returns false (contents
  /// unspecified) on a truncated element.
  bool assign_wire(std::span<const std::uint8_t> data);

  /// Two lists are equal iff their wire forms are: the entry table is a
  /// pure index over buf_.
  bool operator==(const IeList& other) const { return buf_ == other.buf_; }

 private:
  struct Entry {
    ElementId id{};
    std::uint32_t offset = 0;  // of the body, within buf_
    std::uint8_t len = 0;
  };

  /// Append the TLV header for `len` body octets and return the write
  /// position for the body.
  std::size_t append_header(ElementId id, std::size_t len);

  std::vector<std::uint8_t> buf_;  // exact wire TLV bytes, in order
  std::vector<Entry> entries_;
};

}  // namespace cityhunter::dot11
