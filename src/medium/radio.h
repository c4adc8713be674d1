// Radio endpoints attached to the simulated medium.
#pragma once

#include <cstdint>
#include <optional>

#include "dot11/frame.h"
#include "medium/geometry.h"
#include "support/sim_time.h"

namespace cityhunter::medium {

using support::SimTime;

/// Per-frame reception metadata (what a radiotap header would carry).
struct RxInfo {
  double rssi_dbm = 0.0;
  SimTime time;
  std::uint8_t channel = 1;
};

/// Receiver callback. What reaches it depends on the radio's receive address
/// (Radio::set_rx_address). A monitor (no address, the default) gets every
/// decodable frame on its channel. An addressed radio gets group-addressed
/// frames and the unicast frames whose addr1 is its address, as a NIC's
/// address filter would pass them. Sinks still check addr1 themselves:
/// group-addressed frames reach every listener.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void on_frame(const dot11::Frame& frame, const RxInfo& info) = 0;
};

using RadioId = std::uint64_t;

class Medium;

/// Lightweight handle to a radio owned by the Medium. Copyable; all state
/// lives in the Medium so handles stay valid until detach().
///
/// Radio ids are issued monotonically and never reused; the Medium's slot
/// table keys off id − 1 forever. Setters that affect delivery eligibility
/// (set_channel / set_sink / set_position / set_rx_address) are routed
/// through the Medium so its spatial index and address index — which the
/// batched fanout reads instead of the per-radio state — stay in sync.
class Radio {
 public:
  Radio() = default;

  RadioId id() const { return id_; }
  bool valid() const { return medium_ != nullptr; }

  Position position() const;
  /// Throws std::invalid_argument when a coordinate is NaN or infinite.
  void set_position(Position p);
  std::uint8_t channel() const;
  void set_channel(std::uint8_t ch);
  double tx_power_dbm() const;
  void set_tx_power_dbm(double dbm);
  void set_sink(FrameSink* sink);
  /// Receive address for unicast frames: with one set, a unicast frame
  /// reaches this radio only when its addr1 matches. nullopt (the default)
  /// makes the radio a monitor that hears all traffic on its channel.
  /// Several radios may share an address; each of them receives. set_sink
  /// leaves the address alone.
  void set_rx_address(std::optional<dot11::MacAddress> addr);

  /// Enqueue a frame for transmission. Transmissions from one radio are
  /// serialized: each occupies the air for its airtime (scaled by the
  /// medium's contention factor) before the next may start.
  void transmit(const dot11::Frame& frame);

  /// Frames waiting in this radio's transmit queue (including in flight).
  std::size_t tx_backlog() const;

  /// Drop all queued-but-unsent frames (e.g. the probed client moved away —
  /// the attacker aborts the response train).
  void clear_tx_queue();

  std::uint64_t frames_sent() const;
  std::uint64_t frames_received() const;
  /// Fault-injection counters (zero while the medium's FaultModel is off):
  /// 802.11 retransmissions this radio paid for, and frames erased on their
  /// way to this radio.
  std::uint64_t tx_retries() const;
  std::uint64_t frames_lost() const;

 private:
  friend class Medium;
  Radio(Medium* medium, RadioId id) : medium_(medium), id_(id) {}
  Medium* medium_ = nullptr;
  RadioId id_ = 0;
};

}  // namespace cityhunter::medium
