// Attacker framework shared by KARMA, MANA and City-Hunter.
//
// The base class owns the rogue-AP radio and the evil-twin handshake: it
// mimics whatever SSID a victim asks for (direct probes), serves open-system
// authentication and association, and keeps a per-client record — category
// (direct/broadcast prober), every SSID already sent to it (the untried-list
// machinery of §III-A), and how a hit was eventually achieved (for the Fig 6
// source breakdown). Subclasses implement one hook: which SSIDs to offer a
// broadcast probe, named by database id (SsidId). A response frame reads its
// SSID from the database record, so a 40-response train copies no strings.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ssid_db.h"
#include "dot11/frame.h"
#include "medium/medium.h"

namespace cityhunter::core {

using support::SimTime;

/// Which selection path put an SSID into a response train.
enum class SelectionTag : std::uint8_t {
  kDirectReply,      // mimicked a direct probe (KARMA path)
  kPlainDump,        // MANA: database replayed in insertion order
  kUntriedSweep,     // preliminary City-Hunter: first-N untried
  kPopularity,       // advanced: Popularity Buffer
  kPopularityGhost,  // advanced: PB ghost list sample
  kFreshness,        // advanced: Freshness Buffer
  kFreshnessGhost,   // advanced: FB ghost list sample
};

const char* to_string(SelectionTag t);

/// One SSID chosen for a response train: its database id, with attribution.
struct SsidChoice {
  SsidId id = 0;
  SelectionTag tag = SelectionTag::kUntriedSweep;
  SsidSource source = SsidSource::kDirectProbe;
};

/// What an offer of an SSID is credited with if the client joins through
/// it: the selection path, and where the database learned the SSID.
struct Attribution {
  SelectionTag tag = SelectionTag::kUntriedSweep;
  SsidSource source = SsidSource::kDirectProbe;
};

/// Everything the attacker knows about one client MAC.
///
/// Per-SSID state is indexed by database id and grows with the database on
/// demand: an id at or past the end of `sent` or `offered` was never sent or
/// offered to this client.
struct ClientRecord {
  dot11::MacAddress mac;
  bool direct_prober = false;  // sent at least one direct probe
  bool connected = false;
  SimTime first_seen;
  SimTime connect_time;
  int broadcast_probes = 0;

  /// Distinct SSIDs offered to this client in broadcast responses.
  int ssids_sent = 0;
  /// Per id: 1 once the SSID went out in a broadcast response.
  std::vector<std::uint8_t> sent;
  /// Per id: attribution of the latest offer of the SSID, by broadcast
  /// response or by direct reply.
  std::vector<std::optional<Attribution>> offered;
  /// Latest direct reply for each SSID the database does not hold (KARMA
  /// stores none). Once an SSID is in the database its offers land in
  /// `offered`, so an `offered` entry is always the newer one.
  std::unordered_map<std::string, Attribution> offered_unstored;

  /// Filled in on association.
  std::string hit_ssid;
  std::optional<Attribution> hit_choice;

  bool was_sent(SsidId id) const { return id < sent.size() && sent[id] != 0; }
};

class Attacker : public medium::FrameSink {
 public:
  struct BaseConfig {
    dot11::MacAddress bssid;
    medium::Position pos;
    std::uint8_t channel = 6;
    double tx_power_dbm = 20.0;  // 100 mW, the paper's Raspberry Pi setting
    /// Probe responses per broadcast probe (the paper's 40).
    int response_budget = 40;
  };

  Attacker(medium::Medium& medium, BaseConfig cfg);
  ~Attacker() override;

  Attacker(const Attacker&) = delete;
  Attacker& operator=(const Attacker&) = delete;

  void start();
  void stop();

  const dot11::MacAddress& bssid() const { return cfg_.bssid; }
  medium::Radio& radio() { return radio_; }
  /// Client state is keyed by record index, so once started the database
  /// may only grow (add, observe_direct, record_hit); replace it
  /// (assignment, restore) before start().
  SsidDatabase& database() { return db_; }
  const SsidDatabase& database() const { return db_; }

  const std::map<dot11::MacAddress, ClientRecord>& clients() const {
    return clients_;
  }

  std::size_t clients_seen() const { return clients_.size(); }
  std::size_t clients_connected() const { return connected_count_; }

  /// Broadcast probes answered (one scan-window fill each), probe
  /// responses transmitted into those windows, and the smallest and largest
  /// fill of one window (0 before the first). Maintained unconditionally.
  std::uint64_t scan_windows() const { return scan_windows_; }
  std::uint64_t responses_sent() const { return responses_sent_; }
  std::uint64_t min_window_fill() const { return min_window_fill_; }
  std::uint64_t max_window_fill() const { return max_window_fill_; }

  /// Attach (or detach with nullptr) a structured trace sink.
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }

  // medium::FrameSink
  void on_frame(const dot11::Frame& frame, const medium::RxInfo& info) override;

 protected:
  /// Strategy hook: append up to `budget` choices for a broadcast probe from
  /// `client` to `out`, which arrives empty (it is the attacker's reused
  /// scratch). Entries already offered to the client are the subclass's
  /// business (MANA deliberately repeats itself; City-Hunter filters).
  virtual void select_ssids(const ClientRecord& client, int budget,
                            std::vector<SsidChoice>& out) = 0;

  /// Notification hooks.
  virtual void handle_direct_probe_ssid(const std::string& ssid, SimTime now);
  virtual void on_hit(const ClientRecord& client, const std::string& ssid,
                      SimTime now);

  medium::Medium& medium_;
  SsidDatabase db_;
  obs::TraceBuffer* trace_ = nullptr;  // null = tracing off

  SimTime now() const { return medium_.events().now(); }
  std::uint16_t next_seq() { return seq_ = (seq_ + 1) & 0x0fff; }

 private:
  ClientRecord& client(const dot11::MacAddress& mac);
  void respond_to_direct_probe(ClientRecord& c, const std::string& ssid);
  void respond_to_broadcast_probe(ClientRecord& c);
  /// Record `offer` as the latest offer of database id `id` to `c`.
  void note_offer(ClientRecord& c, SsidId id, Attribution offer);

  BaseConfig cfg_;
  medium::Radio radio_;
  /// Reused transmit scratch: the 40-response train rebuilds this frame in
  /// place instead of reallocating IE storage per response.
  dot11::Frame tx_frame_;
  /// Reused select_ssids() output: one response train.
  std::vector<SsidChoice> choices_;
  bool started_ = false;
  bool stopped_ = false;
  std::map<dot11::MacAddress, ClientRecord> clients_;
  std::size_t connected_count_ = 0;
  std::uint64_t scan_windows_ = 0;
  std::uint64_t responses_sent_ = 0;
  std::uint64_t min_window_fill_ = 0;
  std::uint64_t max_window_fill_ = 0;
  std::uint16_t seq_ = 0;
  std::uint16_t next_aid_ = 1;
};

}  // namespace cityhunter::core
