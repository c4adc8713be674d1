// The simulated wireless medium.
//
// Replaces the monitor-mode NIC + real airspace of the paper's testbed.
// Frames are serialized to wire bytes and parsed back on transmit, so the
// dot11 codec is on the hot path of every simulation — an attacker can only
// act on information that survives the actual 802.11 wire format.
//
// Delivery fanout has one pipeline and one test oracle (DESIGN.md §5d–§5g).
//
// Who hears a frame. A radio either registers a receive address
// (Radio::set_rx_address) or is a monitor (the default). An addressed radio
// also has a receive role, access point or station (RxRole, fixed at
// attach). A unicast frame reaches only the radios registered under its
// addr1, plus monitors in range: bystanders are never enumerated, as a
// NIC's address filter drops them before the host sees them. A
// group-addressed frame reaches every listener in range on the channel,
// except that a group-addressed probe request skips stations: only an AP
// acts on one, and a station's MAC discards it.
//
// The pipeline (default) culls receivers with a uniform spatial grid: the
// cell size tracks the maximum deliverable range of the strongest attached
// transmitter, so a transmission probes at most the 3x3 cells its own range
// box overlaps. Each cell keeps one bucket per fused listening key:
// ((channel + 1) << 2 | {0 = AP, 1 = monitor, 2 = station}) for radios with
// a sink, 0 for radios that cannot receive. A group-addressed frame probes
// the monitor, AP and station partitions of its channel per cell (a probe
// request only the first two); a unicast frame probes only the monitor
// partition and finds its addressees through a MAC → slot index, whose
// hits pass the same self/channel/sink/d² checks as one more run. A
// population count per listening key lets the fanout skip, in every cell,
// a partition whose only member (if any) is the sender itself.
// Slots are issued monotonically and never recycled (slot ≡ id − 1), so slot
// order IS radio-id order: buckets keep their slots sorted, each probed
// bucket is filtered in the squared-distance domain against a per-tx-power
// range² into one ascending run of survivors, and a ≤27-way merge walks the
// runs in global id order. There is no per-frame sort, sqrt/log10 never run
// for radios that turn out to be out of range, and the fanout order is
// bit-identical to the oracle's. Survivor RX power comes from a monotone
// piecewise-linear path-loss LUT over d² (error ≪ RSSI quantization), with
// exact log-distance math beyond its coverage. Lossy runs always use exact
// math: the erasure draw, keyed by (transmission, receiver), must see
// bit-identical RX power.
//
// A flat open-addressed cell table maps (cell, partition) to its bucket's
// arena window, so probing one partition of a cell is one hash and usually
// one cache line. Bucket storage (slot, x, y) lives in one compacted slab
// arena of parallel arrays instead of per-cell heap vectors, so a probe's
// candidate stream is contiguous lines. Churn (attach/detach/set_position/
// set_channel/set_sink/set_rx_address) migrates radios between buckets
// incrementally: out-of-order arrivals append to a per-bucket unsorted tail
// that is merged into the sorted prefix lazily, at the bucket's next probe
// — an attach storm into one cell is amortized O(1) per radio.
//
// The oracle (Config::spatial_grid = false) scans every attached radio in id
// order with exact math per candidate, applying the same address filter and
// role rule.
// Tests hold the pipeline to it byte for byte, under churn, faults, address
// changes and mid-fanout topology changes.
//
// Hot-path storage: radio state lives in a dense slab indexed by slot, and
// the two fields every delivery touches (the sink and the receive counter)
// live in their own per-slot columns, so the survivor loop reads 16 bytes
// per receiver instead of a whole RadioState. Each in-flight transmission
// borrows a pooled object that owns the wire buffer and the decoded frame
// every receiver shares. The address index and the cell table are
// open-addressed tables that only grow. At steady state a transmit→deliver
// round trip performs no heap allocation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dot11/frame.h"
#include "medium/event_queue.h"
#include "medium/fault.h"
#include "medium/geometry.h"
#include "medium/probe_table.h"
#include "medium/propagation.h"
#include "medium/radio.h"

namespace cityhunter::obs {
class TraceBuffer;
}

namespace cityhunter::medium {

class Medium {
 public:
  struct Config {
    LogDistancePathLoss::Config propagation{};
    /// Effective airtime multiplier for channel contention: 2.0 means half
    /// the channel is consumed by other traffic, which turns the 20 ms scan
    /// listen window into the paper's 40-response budget (20 ms / (0.25 ms
    /// * 2) = 40). In (0, 100].
    double contention_factor = 2.0;
    /// Management frame rate used for airtime computation, in [1, 1000].
    double mgmt_rate_mbps = 11.0;
    /// Spatial-grid delivery pipeline in deliver(). Disable to force the
    /// legacy scan over every attached radio with exact math — the test
    /// oracle the pipeline must match byte for byte (bench/micro_medium
    /// prices the two against each other).
    bool spatial_grid = true;
    /// Piecewise-linear path-loss LUT for survivor RX power. Disable for
    /// exact log10 math on every survivor — the bitwise reference. The LUT
    /// error (< PathLossLut::max_error_db(), ~4.5e-4 dB at default exponent)
    /// is orders of magnitude below RSSI quantization.
    bool pathloss_lut = true;
    /// Deterministic fault injection (loss, corruption, retries). Disabled
    /// by default: the perfect channel stays byte-identical to the seed.
    FaultModel::Config fault{};
  };

  explicit Medium(EventQueue& events);
  /// Throws std::invalid_argument when `cfg` is nonsense
  /// (contention_factor outside (0, 100], mgmt_rate_mbps outside [1, 1000],
  /// bad fault config).
  Medium(EventQueue& events, Config cfg);
  ~Medium();

  /// Create a radio at `pos` on `channel` with `tx_power_dbm`, receiving
  /// through `sink` under `rx_address` (see Radio::set_rx_address; nullopt
  /// = monitor) in `role` (see RxRole; it holds for the radio's lifetime).
  /// Registering the address here files the radio straight into its
  /// listener partition. Throws std::invalid_argument when a coordinate of
  /// `pos` is NaN or infinite, or when `tx_power_dbm` or its maximum range
  /// is not finite (so does import_radio).
  Radio attach(Position pos, std::uint8_t channel, double tx_power_dbm,
               FrameSink* sink = nullptr,
               std::optional<dot11::MacAddress> rx_address = std::nullopt,
               RxRole role = RxRole::kAccessPoint);

  /// Remove a radio; its handle becomes invalid and queued frames are
  /// dropped.
  void detach(Radio& radio);

  /// Boundary radio handoff for the sharded city (sim/shard): everything a
  /// destination shard's Medium needs to continue a radio that just crossed
  /// a shard boundary. Local radio ids stay monotone per Medium and never
  /// transfer — the importing Medium issues a fresh id — so the snapshot
  /// carries the radio's physical state and lifetime counters instead.
  struct RadioSnapshot {
    Position pos;
    std::uint8_t channel = 1;
    double tx_power_dbm = 0.0;
    std::optional<dot11::MacAddress> rx_address;  // nullopt = monitor
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t tx_seq = 0;
    std::uint64_t tx_retries = 0;
    std::uint64_t rx_lost = 0;
    RxRole role = RxRole::kAccessPoint;
  };

  /// Snapshot `radio` and detach it. Precondition: the radio is idle (no
  /// queued or in-flight transmission) — the sharded city guarantees this
  /// by keeping clients radio-silent in the guard gaps, so a handoff never
  /// races a fanout. Detaching drops the radio's bucket slot and address
  /// registration with the local id.
  RadioSnapshot export_radio(Radio& radio);

  /// Attach a radio from another Medium's snapshot, restoring its position,
  /// channel, TX power, receive address, role and counters. The fault model's
  /// draws are keyed by the local radio id, and the importing Medium
  /// assigns a fresh one, so a lossy radio does not continue its fault
  /// draws across Mediums (the sharded city therefore refuses the fault
  /// model).
  Radio import_radio(const RadioSnapshot& snapshot,
                     FrameSink* sink = nullptr);

  EventQueue& events() { return events_; }
  const Config& config() const { return cfg_; }
  const LogDistancePathLoss& propagation() const { return propagation_; }
  const FaultModel& fault() const { return fault_; }

  /// Whether `id` currently names an attached radio. Safe for any 64-bit
  /// id: values outside the slot table (0, one past the last issued id,
  /// anything larger) resolve to false rather than indexing out of bounds.
  bool has_radio(RadioId id) const { return slot_of(id) != kNoSlot; }

  /// Total frames ever handed to a sink (for tests/benches). Bystanders a
  /// unicast frame never reached are not enumerated, so not counted.
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t transmissions() const { return transmissions_; }
  /// Fault-injection totals: frames lost (per-receiver erasures plus
  /// transmissions killed by a collision, see drops()), transmissions whose
  /// final attempt was bit-corrupted, and 802.11 retransmissions. All zero
  /// while the fault model is disabled.
  std::uint64_t frames_lost() const {
    return drops_.erasure + drops_.collision;
  }
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }
  std::uint64_t retries() const { return retries_; }

  /// Grid-pipeline work counters: fanouts run, candidates streamed through
  /// the range filter (bucket entries of the 3x3 probes plus address-index
  /// hits), unicast fanouts, and unicast fanouts no registered addressee
  /// heard — addr1 registered by no radio, or each registered radio off
  /// channel, sinkless or out of range. Monitors may still have heard
  /// those.
  struct FanoutStats {
    std::uint64_t fanouts = 0;
    std::uint64_t candidates_loaded = 0;
    std::uint64_t unicast = 0;
    std::uint64_t unicast_unheard = 0;
  };
  const FanoutStats& fanout_stats() const { return fanout_stats_; }

  /// Occupancy snapshot of the live spatial index (metrics/bench surface).
  /// The extrema read 0 when no bucket is live.
  struct BucketOccupancy {
    std::uint64_t buckets = 0;       // live (non-empty) buckets
    std::uint64_t radios = 0;        // sum of bucket occupancies
    std::uint32_t min_occupancy = 0;
    std::uint32_t max_occupancy = 0;
  };
  BucketOccupancy bucket_occupancy() const;

  /// Slab-arena health counters (see DESIGN.md §5g): elements filed in live
  /// buckets, abandoned (unreachable) elements awaiting compaction, and how
  /// many times maybe_compact_arena() actually rebuilt the arena. Lets
  /// tests drive the `garbage > live && garbage >= 4096` trigger explicitly
  /// instead of inferring it from timing.
  struct ArenaStats {
    std::size_t live = 0;
    std::size_t garbage = 0;
    std::uint64_t compactions = 0;
  };
  ArenaStats arena_stats() const {
    return {arena_live_, arena_garbage_, arena_compactions_};
  }

  /// Why frames died, split by cause (frames_lost() == erasure + collision;
  /// a crc_reject is one frames_corrupted transmission whose bytes every
  /// receiver then refused).
  struct DropCounters {
    std::uint64_t erasure = 0;      // per-receiver SNR/collision draw in
                                    // deliver() erased the frame on one link
    std::uint64_t collision = 0;    // retry budget exhausted on a collision:
                                    // the frame never left the sender
    std::uint64_t crc_reject = 0;   // bit damage survived the retries; the
                                    // FCS check rejected the frame at RX
    std::uint64_t retry_exhausted = 0;  // unicast attempts that ran the full
                                        // 802.11 retry budget and still died

    bool operator==(const DropCounters&) const = default;
  };
  const DropCounters& drops() const { return drops_; }

  /// Attach (or detach with nullptr) a structured trace sink. Disabled cost
  /// is one pointer test per hook.
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }

 private:
  friend class Radio;

  /// Slot-table marker for "no slot": the radio id was detached (or never
  /// existed).
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Per-radio state the fanout does not touch per receiver. The sink and
  /// the receive counter live in the rx_sinks_/rx_frames_ columns instead.
  struct RadioState {
    Position pos;
    std::uint8_t channel = 1;
    bool attached = true;           // false once detached; slots never recycle
    double tx_power_dbm = 0.0;
    std::optional<dot11::MacAddress> rx_address;  // nullopt = monitor
    RxRole role = RxRole::kAccessPoint;  // acts while rx_address is set
    SimTime tx_busy_until;
    std::uint64_t queue_epoch = 0;  // bumped by clear_tx_queue()
    std::size_t tx_backlog = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t tx_seq = 0;       // keys the fault draws, one per transmit()
    std::uint64_t tx_retries = 0;   // 802.11 retransmissions by this radio
    std::uint64_t rx_lost = 0;      // frames erased on the way to this radio
    std::uint64_t cell = 0;         // current grid cell key (valid iff in_grid)
    /// Partition key the radio is filed under within its cell (valid iff
    /// in_grid): its listen_key() when it was filed. Lets erase/migrate find
    /// the bucket after the key has already changed.
    std::uint16_t part = 0;
    // Explicit membership flag: every 64-bit key is a legal cell (the cell
    // at (-1,-1) packs to all ones), so no in-band sentinel exists.
    bool in_grid = false;
  };

  /// An in-flight transmission. Pooled: the wire buffer and the decoded
  /// frame every receiver shares keep their storage across transmissions,
  /// and the delivery closure captures only {this, txn}.
  struct Transmission {
    RadioId from = 0;
    std::uint64_t epoch = 0;       // sender's queue_epoch at transmit time
    Position tx_pos;
    double tx_dbm = 0.0;
    std::uint8_t channel = 1;
    bool erased = false;           // collided away after the retry budget
    bool frame_ok = false;         // wire bytes decoded (FCS intact)
    bool lossy = false;            // fault model on: draw per-link erasures
    std::uint64_t fault_seq = 0;   // sender's tx_seq: keys the link draws
    std::vector<std::uint8_t> wire;
    dot11::Frame frame;            // valid iff frame_ok
  };

  /// A reference-path fanout candidate: id for identity (stable forever),
  /// slot for O(1) state access while the topology is unchanged.
  struct Candidate {
    RadioId id = 0;
    std::uint32_t slot = kNoSlot;
    /// Transmitter→receiver distance frozen at gather time. Delivery
    /// semantics: the frame is in flight, so the receiver set and link
    /// budget are fixed when the transmission fans out; a sink callback
    /// moving radios mid-fanout cannot change who hears this frame or at
    /// what power (only detach revokes delivery). The grid pipeline
    /// snapshots positions the same way (Survivor), keeping both paths
    /// bit-identical under mid-fanout churn.
    double d = 0.0;
  };

  /// One in-range grid-fanout survivor, snapshotted before any sink runs:
  /// the receiver position is frozen at gather time, so the exact-math RX
  /// power comes from this snapshot even if a sink callback moves the radio
  /// mid-fanout.
  struct Survivor {
    /// Leaves the fields uninitialised, so growing the scratch costs no
    /// stores: the filter writes every candidate before anything reads it.
    Survivor() {}
    Survivor(std::uint32_t slot_, double dist_sq_, double x_, double y_)
        : slot(slot_), dist_sq(dist_sq_), x(x_), y(y_) {}
    std::uint32_t slot;
    double dist_sq;
    double x;
    double y;
  };

  /// Directory entry of one slab-resident bucket: a [offset, offset + size)
  /// window into the arena's three parallel arrays (slots/xs/ys at the same
  /// index). The prefix [0, sorted) is ascending by slot (== radio-id
  /// order); [sorted, size) is the unsorted churn tail — out-of-order
  /// arrivals land there in O(1) and are merged into the prefix lazily, the
  /// next time the bucket is probed (bucket_normalize). Growth abandons the
  /// old window (tracked as garbage and reclaimed by arena compaction).
  struct BucketRef {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
    std::uint32_t sorted = 0;
  };

  /// One live bucket of the cell table: (cell, partition key) → its arena
  /// window. A cell has one entry per listening key present in it
  /// (typically the venue's 1–3 channels plus the non-listener partition).
  /// Entries move when the table grows or erases, so nothing holds a
  /// BucketRef across either.
  struct CellBucket {
    std::uint64_t cell;
    std::uint16_t part;  // kNoPart marks an unused entry
    BucketRef bucket;
  };
  /// Listening keys stop at (255 + 1) << 2 | 2 = 1026.
  static constexpr std::uint16_t kNoPart = 0xffff;
  static constexpr std::size_t kListenKeys = ((255 + 1) << 2 | 2) + 1;
  static std::uint64_t cell_hash(std::uint64_t cell, std::uint16_t part) {
    return probe_mix(cell ^ (static_cast<std::uint64_t>(part) *
                             0x9e3779b97f4a7c15ULL));
  }
  struct CellTraits {
    using Entry = CellBucket;
    static Entry unused() { return {0, kNoPart, {}}; }
    static bool empty(const Entry& e) { return e.part == kNoPart; }
    static std::uint64_t hash(const Entry& e) {
      return cell_hash(e.cell, e.part);
    }
  };

  /// Slot for `id`: ids are issued monotonically and slots never recycle,
  /// so slot ≡ id − 1 for the radio's whole lifetime. kNoSlot once detached.
  /// The bound compares in RadioId's own unsigned 64-bit domain (slots_
  /// .size() cast up, never id narrowed down), so an id one past the table —
  /// or wider than 32 bits — can never alias a live slot.
  std::uint32_t slot_of(RadioId id) const {
    if (id < 1 || id > static_cast<RadioId>(slots_.size())) return kNoSlot;
    const std::size_t idx = static_cast<std::size_t>(id - 1);
    return slots_[idx].attached ? static_cast<std::uint32_t>(idx) : kNoSlot;
  }

  /// slot_of for a radio that must be attached: throws std::logic_error
  /// ("use of detached radio") otherwise.
  std::uint32_t live_slot(RadioId id) const;
  RadioState& state(RadioId id);
  const RadioState& state(RadioId id) const;

  void transmit(RadioId from, const dot11::Frame& frame);
  /// Completion of a scheduled transmission: backlog/epoch bookkeeping, then
  /// delivery fanout (unless the frame was erased or failed its FCS).
  void finish_transmission(Transmission& t);
  /// Fan `t` out to its receivers in id order. On a lossy transmission each
  /// receiver's erasure draw is keyed by (sender, fault_seq, receiver id),
  /// so it does not depend on which other radios were in range.
  void deliver(const Transmission& t);
  /// Grid pipeline: probe the channel's listener buckets in the ≤3x3 cells
  /// around the transmitter (monitor, AP and station partitions for
  /// group-addressed frames, minus stations for a probe request; monitors
  /// only for unicast, plus the addressee run from the address index),
  /// skipping a partition no radio but the sender is filed in. Filter each
  /// bucket into a sorted survivor run, merge the runs in slot order, LUT RX
  /// power for survivors.
  void deliver_batched(const Transmission& t);

  Transmission& acquire_txn();

  /// Radio moved: update its grid cell membership in O(cell occupancy).
  void set_position(RadioId id, Position pos);
  /// TX power raised: the grid cell size may need to grow to keep a range
  /// box within a 3x3 cell neighbourhood (and the LUT coverage with it).
  void set_tx_power(RadioId id, double dbm);
  void set_channel(RadioId id, std::uint8_t ch);
  void set_sink(RadioId id, FrameSink* sink);
  void set_rx_address(RadioId id, std::optional<dot11::MacAddress> addr);

  /// The radio's fused listening key: 0 when it cannot receive (detached
  /// or no sink), ((channel + 1) << 2 | {0 = AP, 1 = monitor, 2 = station})
  /// otherwise. The key is the radio's bucket partition, so one probe covers
  /// the attached/sink/channel filters and the monitor/AP/station split at
  /// once.
  std::uint16_t listen_key(std::uint32_t slot) const;
  /// After a change to the radio's listening key (attach/detach, channel,
  /// sink, receive address): while the radio is in the grid, migrate it to
  /// its new (cell, key) bucket.
  void refile(std::uint32_t slot);

  /// --- Address index: receive address → slots registered under it. ---
  /// A ProbeTable over 48-bit keys packed into a u64; one entry per
  /// registered radio, so an address shared by several radios has several
  /// entries.
  struct AddrEntry {
    std::uint64_t key;
    std::uint32_t slot;
  };
  static constexpr std::uint64_t kNoAddr = ~std::uint64_t{0};
  struct AddrTraits {
    using Entry = AddrEntry;
    static Entry unused() { return {kNoAddr, 0}; }
    static bool empty(const Entry& e) { return e.key == kNoAddr; }
    static std::uint64_t hash(const Entry& e) { return probe_mix(e.key); }
  };
  static std::uint64_t addr_key(const dot11::MacAddress& addr);
  void addr_erase(std::uint64_t key, std::uint32_t slot);

  /// Memoized per-TX-power range data (venues use a handful of power
  /// classes): the cull-box radius (exactly the legacy max_range) and the
  /// squared-distance acceptance threshold, -1 when the link budget is
  /// negative so the filter matches the exact `deliverable()` predicate at
  /// both ends.
  struct RangeEntry {
    double dbm = 0.0;
    double box_r = 0.0;
    double range_sq = -1.0;
  };
  const RangeEntry& range_for(double tx_power_dbm);

  /// Survivor RX power: LUT when enabled and covering, exact (fresh hypot,
  /// bit-identical to the legacy scan) otherwise. `rx_pos` is the
  /// receiver position frozen at gather time — the link budget must not see
  /// moves a sink callback makes mid-fanout.
  double survivor_rx_dbm(double tx_dbm, double dist_sq, Position tx_pos,
                         Position rx_pos) const;

  /// (Re)build the d² path-loss LUT to cover the strongest transmitter.
  void rebuild_lut();

  static std::uint64_t cell_key(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  /// Floored cell index of a coordinate, clamped to the int32 range
  /// cell_key keeps (see cell_coord in medium.cpp).
  std::int64_t cell_coord(double v) const;
  std::uint64_t cell_of(Position pos) const;
  void grid_insert(std::uint32_t slot);
  void grid_erase(std::uint32_t slot);
  /// Recompute the cell size from the strongest transmitter and re-bucket
  /// every radio (rare: only when a new power class appears). Rebuilds the
  /// arena from scratch — fully sorted, zero garbage.
  void grid_rebuild();

  /// --- Slab arena management (see DESIGN.md §5g). ---
  static constexpr std::size_t kNpos = ~std::size_t{0};
  /// Reserve `cap` fresh elements at the arena tail; returns their offset.
  std::uint32_t arena_alloc(std::uint32_t cap);
  /// Double the bucket's window (the old one becomes garbage).
  void bucket_grow(BucketRef& b);
  /// Rewrite every live bucket contiguously once abandoned windows outgrow
  /// the live population. Layout-only: member order inside each bucket is
  /// preserved, so probe results cannot change. Never runs during a fanout —
  /// only insert paths call it, and those run from sink callbacks or
  /// top-level code, never while a filter is streaming the arena.
  void maybe_compact_arena();
  /// The cell table entry of (cell, part), nullptr when absent.
  CellBucket* find_bucket(std::uint64_t cell, std::uint16_t part);
  /// Find-or-create: a missing bucket enters the cell table with a fresh
  /// 4-element arena window.
  BucketRef& find_or_create_bucket(std::uint64_t cell, std::uint16_t part);
  /// Merge the bucket's unsorted churn tail into the sorted prefix (in
  /// place, backward merge — no arena growth). Called before a bucket is
  /// probed.
  void bucket_normalize(BucketRef& b);
  /// Index of `slot` within the bucket (binary search over the sorted
  /// prefix, linear scan over the tail), kNpos when absent.
  std::size_t bucket_locate(const BucketRef& b, std::uint32_t slot) const;

  EventQueue& events_;
  Config cfg_;
  LogDistancePathLoss propagation_;
  FaultModel fault_;
  RadioId next_id_ = 1;

  // Flat radio table, indexed by slot ≡ id − 1. Slots are never recycled:
  // the table and its two receive columns grow with every attach (128 bytes
  // per radio ever attached: a 112-byte RadioState plus 16 bytes of
  // columns), buying the slot-order ≡ id-order invariant the batched fanout
  // relies on. active_slots_ stays sorted — slots only ever increase, so
  // attach appends.
  std::vector<RadioState> slots_;
  /// Receive columns, indexed by slot like slots_: the radio's sink
  /// (nullptr once detached or when it has none) and the frames handed to
  /// it. The survivor loop reads both by index after every sink call, since
  /// a sink may attach radios and so reallocate them.
  std::vector<FrameSink*> rx_sinks_;
  std::vector<std::uint64_t> rx_frames_;
  std::vector<std::uint32_t> active_slots_;
  /// Bumped on attach/detach; lets the legacy scan trust cached
  /// candidate slots until the topology actually changes under a sink
  /// callback.
  std::uint64_t topology_epoch_ = 0;

  ProbeTable<AddrTraits> addrs_;  // see AddrEntry

  // Memoized range data per distinct TX power, linear-scanned (a venue has
  // a handful of power classes).
  std::vector<RangeEntry> range_cache_;

  PathLossLut lut_;

  // Transmission pool. all_txns_ owns; free_txns_ holds the idle ones.
  std::vector<std::unique_ptr<Transmission>> all_txns_;
  std::vector<Transmission*> free_txns_;

  // deliver() fanout scratches, reused across calls (depth-guarded:
  // reentrant delivery falls back to a local vector).
  std::vector<Candidate> deliver_scratch_;
  std::vector<Survivor> survivor_scratch_;
  int deliver_depth_ = 0;
  FanoutStats fanout_stats_;

  double cell_size_ = 0.0;
  double max_tx_power_dbm_ = -1e300;
  /// Spatial index: the cell table maps (cell, partition) to a slab-resident
  /// bucket. Buckets hold slots sorted ascending (== ascending radio id,
  /// modulo the lazily-merged churn tail), so per-cell gather runs come out
  /// pre-sorted for the merge fanout.
  ProbeTable<CellTraits> cells_;
  /// Radios filed in the grid per listening key, over all cells: a fanout
  /// skips a partition whose count is zero once the sender is taken out.
  std::array<std::uint32_t, kListenKeys> part_count_{};
  /// The arena: three parallel arrays every bucket windows into. Grown at
  /// the tail; abandoned windows are tracked as garbage and reclaimed by
  /// maybe_compact_arena().
  std::vector<std::uint32_t> arena_slots_;
  std::vector<double> arena_xs_;
  std::vector<double> arena_ys_;
  std::size_t arena_live_ = 0;     // elements currently filed in buckets
  std::size_t arena_garbage_ = 0;  // abandoned (unreachable) elements
  std::uint64_t arena_compactions_ = 0;  // maybe_compact_arena rebuilds
  /// bucket_normalize scratch for the churn tail, reused across calls
  /// (normalize never suspends — no sink runs inside it — so one scratch
  /// serves nested delivery too).
  struct TailEntry {
    std::uint32_t slot;
    double x;
    double y;
  };
  std::vector<TailEntry> tail_scratch_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t retries_ = 0;
  DropCounters drops_;
  obs::TraceBuffer* trace_ = nullptr;  // null = tracing off
};

}  // namespace cityhunter::medium
