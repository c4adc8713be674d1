// Wire-format serialization for 802.11 management frames.
//
// Layout follows IEEE Std 802.11-2016 §9.3.3: little-endian fixed fields,
// the 3-address MAC header, then the frame body and a CRC-32 FCS. A frame
// serialized here is byte-for-byte what a monitor-mode injector would emit
// (modulo radiotap, which is a capture pseudo-header, not part of the frame).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dot11/frame.h"

namespace cityhunter::dot11 {

/// Serialize `frame` including the trailing 4-octet FCS.
std::vector<std::uint8_t> serialize(const Frame& frame);

/// Hot-path variant: serialize into a caller-owned scratch buffer, resized
/// to wire_size(frame) (capacity reused across calls) and written in place.
/// Returns the wire size, so airtime needs no second walk over the frame.
/// Output bytes are identical to serialize().
std::size_t serialize_into(const Frame& frame, std::vector<std::uint8_t>& out);

/// Serialized length in octets (including FCS) without materialising the
/// buffer.
std::size_t wire_size(const Frame& frame);

/// Parse a full frame. Returns nullopt on: truncation, bad FCS, non-mgmt
/// type, or an unsupported subtype.
std::optional<Frame> parse(std::span<const std::uint8_t> data);

/// Hot-path variant: fcs_ok() then decode_into(), into a reusable frame
/// slot. When `slot` already holds the same body subtype, its IE backing
/// storage is reused — no heap allocation at steady state. Returns false on
/// the same rejects as parse() (slot contents are unspecified then).
/// Accepted frames compare equal to what parse() would have produced.
bool parse_into(std::span<const std::uint8_t> data, Frame& slot);

/// The receiver's FCS check: true iff `data` holds at least a MAC header
/// and an FCS, and the last 4 octets equal the CRC-32 of the ones before.
bool fcs_ok(std::span<const std::uint8_t> data);

/// parse_into() without the FCS check: decodes `data` as if its FCS were
/// correct, and never reads the FCS octets. For bytes whose FCS cannot be
/// wrong, such as what serialize_into() just wrote; Medium::transmit runs
/// fcs_ok() only on bytes the fault model damaged.
bool decode_into(std::span<const std::uint8_t> data, Frame& slot);

}  // namespace cityhunter::dot11
