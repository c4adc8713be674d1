#include "medium/medium.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "dot11/serialize.h"
#include "dot11/timing.h"
#include "obs/trace.h"

namespace cityhunter::medium {
namespace {

/// Positions must be finite: a NaN or infinite coordinate has no grid cell,
/// and the legacy scan's distance math would turn it into NaN link budgets.
void require_finite(Position pos, const char* what) {
  if (!std::isfinite(pos.x) || !std::isfinite(pos.y)) {
    throw std::invalid_argument(std::string("Medium: ") + what +
                                " needs a finite position");
  }
}

/// TX power must be finite and reach a finite range: the grid sizes its
/// cells from that range, and a NaN power would also never match its own
/// range-cache entry.
void require_finite_power(const LogDistancePathLoss& propagation, double dbm,
                          const char* what) {
  if (!std::isfinite(dbm) || !std::isfinite(propagation.max_range(dbm))) {
    throw std::invalid_argument(std::string("Medium: ") + what +
                                " needs a TX power with a finite range");
  }
}

/// The role rule, shared by the grid and the oracle: a group-addressed probe
/// request does not reach stations. Every other frame reaches them as the
/// address filter allows.
bool skips_stations(const dot11::Frame& frame) {
  return frame.header.addr1.is_multicast() &&
         frame.as<dot11::ProbeRequest>() != nullptr;
}

}  // namespace

Medium::Medium(EventQueue& events) : Medium(events, Config()) {}

Medium::Medium(EventQueue& events, Config cfg)
    : events_(events),
      cfg_(cfg),
      propagation_(cfg.propagation),
      fault_(cfg.fault) {
  // Negated comparisons so NaN is rejected too. The bounds keep every
  // airtime and backoff, scaled by them, far inside SimTime's int64
  // microseconds; 1 Mb/s is 802.11's slowest rate.
  if (!(cfg_.contention_factor > 0.0 && cfg_.contention_factor <= 100.0)) {
    throw std::invalid_argument(
        "Medium: contention_factor must be in (0, 100]");
  }
  if (!(cfg_.mgmt_rate_mbps >= 1.0 && cfg_.mgmt_rate_mbps <= 1000.0)) {
    throw std::invalid_argument(
        "Medium: mgmt_rate_mbps must be in [1, 1000]");
  }
}

Medium::~Medium() = default;

Radio Medium::attach(Position pos, std::uint8_t channel, double tx_power_dbm,
                     FrameSink* sink,
                     std::optional<dot11::MacAddress> rx_address,
                     RxRole role) {
  require_finite(pos, "attach");
  require_finite_power(propagation_, tx_power_dbm, "attach");
  if (slots_.size() >= static_cast<std::size_t>(kNoSlot) - 1) {
    throw std::length_error("Medium: radio id space exhausted");
  }
  const RadioId id = next_id_++;
  // Slots are never recycled: slot ≡ id − 1 for the radio's whole lifetime,
  // which makes slot order identical to id order and lets the batched
  // fanout merge sorted grid buckets instead of sorting candidates.
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  rx_sinks_.push_back(sink);
  rx_frames_.push_back(0);
  RadioState& st = slots_.back();
  st.pos = pos;
  st.channel = channel;
  st.tx_power_dbm = tx_power_dbm;
  st.rx_address = rx_address;
  st.role = role;
  if (rx_address) addrs_.insert({addr_key(*rx_address), slot});
  st.tx_busy_until = events_.now();
  active_slots_.push_back(slot);  // slots increase monotonically: stays sorted
  ++topology_epoch_;
  if (cfg_.spatial_grid) {
    if (tx_power_dbm > max_tx_power_dbm_) {
      max_tx_power_dbm_ = tx_power_dbm;
      rebuild_lut();
      if (propagation_.max_range(max_tx_power_dbm_) > cell_size_) {
        grid_rebuild();  // re-buckets the new radio too
        return Radio(this, id);
      }
    }
    grid_insert(slot);
  }
  return Radio(this, id);
}

void Medium::detach(Radio& radio) {
  const std::uint32_t slot = slot_of(radio.id_);
  if (slot != kNoSlot) {
    RadioState& st = slots_[slot];
    grid_erase(slot);
    if (st.rx_address) addr_erase(addr_key(*st.rx_address), slot);
    st.rx_address.reset();
    st.attached = false;
    rx_sinks_[slot] = nullptr;
    const auto it =
        std::lower_bound(active_slots_.begin(), active_slots_.end(), slot);
    if (it != active_slots_.end() && *it == slot) active_slots_.erase(it);
    ++topology_epoch_;
  }
  radio.medium_ = nullptr;
}

Medium::RadioSnapshot Medium::export_radio(Radio& radio) {
  const std::uint32_t slot = live_slot(radio.id_);
  const RadioState& st = slots_[slot];
  const RadioSnapshot snapshot{st.pos,           st.channel,
                               st.tx_power_dbm,  st.rx_address,
                               st.frames_sent,   rx_frames_[slot],
                               st.tx_seq,        st.tx_retries,
                               st.rx_lost,       st.role};
  detach(radio);
  return snapshot;
}

Radio Medium::import_radio(const RadioSnapshot& snapshot, FrameSink* sink) {
  Radio radio = attach(snapshot.pos, snapshot.channel, snapshot.tx_power_dbm,
                       sink, snapshot.rx_address, snapshot.role);
  const std::uint32_t slot = live_slot(radio.id_);
  RadioState& st = slots_[slot];
  st.frames_sent = snapshot.frames_sent;
  rx_frames_[slot] = snapshot.frames_received;
  st.tx_seq = snapshot.tx_seq;
  st.tx_retries = snapshot.tx_retries;
  st.rx_lost = snapshot.rx_lost;
  return radio;
}

std::uint32_t Medium::live_slot(RadioId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::logic_error("Medium: use of detached radio");
  }
  return slot;
}

Medium::RadioState& Medium::state(RadioId id) { return slots_[live_slot(id)]; }

const Medium::RadioState& Medium::state(RadioId id) const {
  return slots_[live_slot(id)];
}

std::int64_t Medium::cell_coord(double v) const {
  // Positions are finite (attach and set_position refuse anything else), but
  // a far-off one still floors outside the int32 range cell_key keeps — and
  // outside int64, where the cast is undefined. Clamping is monotone, so a
  // range box still covers every cell its radios are filed in; far radios
  // share an edge cell, where the d² filter rejects them.
  constexpr double kLo = std::numeric_limits<std::int32_t>::min();
  constexpr double kHi = std::numeric_limits<std::int32_t>::max();
  return static_cast<std::int64_t>(
      std::clamp(std::floor(v / cell_size_), kLo, kHi));
}

std::uint64_t Medium::cell_of(Position pos) const {
  return cell_key(cell_coord(pos.x), cell_coord(pos.y));
}

std::uint32_t Medium::arena_alloc(std::uint32_t cap) {
  const std::size_t off = arena_slots_.size();
  arena_slots_.resize(off + cap);
  arena_xs_.resize(off + cap);
  arena_ys_.resize(off + cap);
  return static_cast<std::uint32_t>(off);
}

void Medium::bucket_grow(BucketRef& b) {
  const std::uint32_t new_cap = std::max<std::uint32_t>(4, b.capacity * 2);
  const std::uint32_t off = arena_alloc(new_cap);
  std::copy_n(arena_slots_.begin() + b.offset, b.size,
              arena_slots_.begin() + off);
  std::copy_n(arena_xs_.begin() + b.offset, b.size, arena_xs_.begin() + off);
  std::copy_n(arena_ys_.begin() + b.offset, b.size, arena_ys_.begin() + off);
  arena_garbage_ += b.capacity;
  b.offset = off;
  b.capacity = new_cap;
}

void Medium::maybe_compact_arena() {
  // Compact once abandoned windows outgrow the live population (and are
  // worth the rewrite at all): arena length stays O(live), and steady-state
  // churn — which grows buckets only until their capacity fits the cell —
  // almost never trips it.
  constexpr std::size_t kMinGarbage = 4096;
  if (arena_garbage_ < kMinGarbage || arena_garbage_ <= arena_live_) return;
  std::vector<std::uint32_t> slots;
  std::vector<double> xs;
  std::vector<double> ys;
  const std::size_t want = arena_live_ + arena_live_ / 4 + 64;
  slots.reserve(want);
  xs.reserve(want);
  ys.reserve(want);
  cells_.for_each([&](CellBucket& e) {
    BucketRef& b = e.bucket;
    // Quarter-headroom per bucket so the next few inserts don't regrow
    // immediately; slack is reserved capacity, not garbage.
    const std::uint32_t cap = b.size + b.size / 4 + 2;
    const std::uint32_t off = static_cast<std::uint32_t>(slots.size());
    slots.insert(slots.end(), arena_slots_.begin() + b.offset,
                 arena_slots_.begin() + b.offset + b.size);
    xs.insert(xs.end(), arena_xs_.begin() + b.offset,
              arena_xs_.begin() + b.offset + b.size);
    ys.insert(ys.end(), arena_ys_.begin() + b.offset,
              arena_ys_.begin() + b.offset + b.size);
    slots.resize(off + cap);
    xs.resize(off + cap);
    ys.resize(off + cap);
    b.offset = off;
    b.capacity = cap;
  });
  arena_slots_.swap(slots);
  arena_xs_.swap(xs);
  arena_ys_.swap(ys);
  arena_garbage_ = 0;
  ++arena_compactions_;
}

Medium::CellBucket* Medium::find_bucket(std::uint64_t cell,
                                        std::uint16_t part) {
  return cells_.find(cell_hash(cell, part), [&](const CellBucket& e) {
    return e.cell == cell && e.part == part;
  });
}

Medium::BucketRef& Medium::find_or_create_bucket(std::uint64_t cell,
                                                 std::uint16_t part) {
  if (CellBucket* e = find_bucket(cell, part)) return e->bucket;
  BucketRef b;
  b.capacity = 4;
  b.offset = arena_alloc(b.capacity);
  return cells_.insert({cell, part, b}).bucket;
}

std::size_t Medium::bucket_locate(const BucketRef& b,
                                  std::uint32_t slot) const {
  const std::uint32_t* first = arena_slots_.data() + b.offset;
  const std::uint32_t* last = first + b.sorted;
  const std::uint32_t* p = std::lower_bound(first, last, slot);
  if (p != last && *p == slot) return static_cast<std::size_t>(p - first);
  for (std::size_t k = b.sorted; k < b.size; ++k) {
    if (first[k] == slot) return k;
  }
  return kNpos;
}

void Medium::bucket_normalize(BucketRef& b) {
  if (b.sorted == b.size) return;
  const std::size_t off = b.offset;
  const std::size_t nt = b.size - b.sorted;
  tail_scratch_.clear();
  tail_scratch_.reserve(nt);
  for (std::size_t k = b.sorted; k < b.size; ++k) {
    tail_scratch_.push_back(
        {arena_slots_[off + k], arena_xs_[off + k], arena_ys_[off + k]});
  }
  std::sort(tail_scratch_.begin(), tail_scratch_.end(),
            [](const TailEntry& a, const TailEntry& b) {
              return a.slot < b.slot;
            });
  // Backward merge of the sorted tail into the sorted prefix, in place. A
  // slot lives in exactly one bucket, so there are no duplicates and the
  // strict comparison suffices.
  std::size_t i = b.sorted;
  std::size_t j = nt;
  std::size_t dst = b.size;
  while (j > 0) {
    --dst;
    if (i > 0 && arena_slots_[off + i - 1] > tail_scratch_[j - 1].slot) {
      --i;
      arena_slots_[off + dst] = arena_slots_[off + i];
      arena_xs_[off + dst] = arena_xs_[off + i];
      arena_ys_[off + dst] = arena_ys_[off + i];
    } else {
      --j;
      const TailEntry& e = tail_scratch_[j];
      arena_slots_[off + dst] = e.slot;
      arena_xs_[off + dst] = e.x;
      arena_ys_[off + dst] = e.y;
    }
  }
  b.sorted = b.size;
}

void Medium::grid_insert(std::uint32_t slot) {
  RadioState& st = slots_[slot];
  st.cell = cell_of(st.pos);
  st.part = listen_key(slot);
  st.in_grid = true;
  ++part_count_[st.part];
  BucketRef& b = find_or_create_bucket(st.cell, st.part);
  if (b.size == b.capacity) bucket_grow(b);
  const std::size_t at = static_cast<std::size_t>(b.offset) + b.size;
  arena_slots_[at] = slot;
  arena_xs_[at] = st.pos.x;
  arena_ys_[at] = st.pos.y;
  // A fresh attach is the global slot maximum: the append extends the
  // sorted prefix in O(1). Churn migration (move / channel change) appends
  // to the unsorted tail instead — also O(1) — and the tail is merged at
  // the bucket's next probe, so a churn storm never pays the old
  // per-element O(occupancy) sorted insert.
  if (b.sorted == b.size &&
      (b.size == 0 || arena_slots_[b.offset + b.size - 1] < slot)) {
    ++b.sorted;
  }
  ++b.size;
  ++arena_live_;
  maybe_compact_arena();
}

void Medium::grid_erase(std::uint32_t slot) {
  RadioState& st = slots_[slot];
  if (!st.in_grid) return;
  st.in_grid = false;
  --part_count_[st.part];
  CellBucket* entry = find_bucket(st.cell, st.part);
  if (entry == nullptr) return;
  BucketRef& b = entry->bucket;
  const std::size_t off = b.offset;
  const std::size_t idx = bucket_locate(b, slot);
  if (idx == kNpos) return;
  if (idx < b.sorted) {
    // Shift the rest left; the prefix stays sorted and the tail stays
    // contiguous (its internal order is free).
    std::copy(arena_slots_.begin() + off + idx + 1,
              arena_slots_.begin() + off + b.size,
              arena_slots_.begin() + off + idx);
    std::copy(arena_xs_.begin() + off + idx + 1,
              arena_xs_.begin() + off + b.size, arena_xs_.begin() + off + idx);
    std::copy(arena_ys_.begin() + off + idx + 1,
              arena_ys_.begin() + off + b.size, arena_ys_.begin() + off + idx);
    --b.sorted;
  } else {
    // Tail member: swap the last tail element into the hole.
    const std::size_t last = b.size - 1;
    arena_slots_[off + idx] = arena_slots_[off + last];
    arena_xs_[off + idx] = arena_xs_[off + last];
    arena_ys_[off + idx] = arena_ys_[off + last];
  }
  --b.size;
  --arena_live_;
  if (b.size == 0) {
    arena_garbage_ += b.capacity;
    cells_.erase(entry);
  }
}

std::uint16_t Medium::listen_key(std::uint32_t slot) const {
  const RadioState& st = slots_[slot];
  if (!st.attached || rx_sinks_[slot] == nullptr) return 0;
  const unsigned kind =
      !st.rx_address ? 1u : st.role == RxRole::kStation ? 2u : 0u;
  return static_cast<std::uint16_t>((st.channel + 1u) << 2 | kind);
}

void Medium::refile(std::uint32_t slot) {
  const RadioState& st = slots_[slot];
  if (!st.in_grid || st.part == listen_key(slot)) return;
  // The partition IS the fused key: a key change moves the radio to its new
  // (cell, key) bucket. The erase pays at most one prefix shift; the
  // re-insert is an O(1) churn-tail append.
  grid_erase(slot);
  grid_insert(slot);
}

Medium::BucketOccupancy Medium::bucket_occupancy() const {
  BucketOccupancy occ;
  cells_.for_each([&occ](const CellBucket& e) {
    const std::uint32_t size = e.bucket.size;
    if (occ.buckets == 0 || size < occ.min_occupancy) occ.min_occupancy = size;
    occ.max_occupancy = std::max(occ.max_occupancy, size);
    occ.radios += size;
    ++occ.buckets;
  });
  return occ;
}

void Medium::grid_rebuild() {
  cells_.clear();
  arena_slots_.clear();
  arena_xs_.clear();
  arena_ys_.clear();
  arena_live_ = 0;
  arena_garbage_ = 0;
  part_count_.fill(0);
  cell_size_ = std::max(1.0, propagation_.max_range(max_tx_power_dbm_));
  // active_slots_ is sorted, so every bucket is built by pure sorted-prefix
  // appends.
  for (const std::uint32_t slot : active_slots_) grid_insert(slot);
}

void Medium::rebuild_lut() {
  if (!cfg_.pathloss_lut) return;
  lut_ = PathLossLut(cfg_.propagation,
                     propagation_.max_range(max_tx_power_dbm_));
}

const Medium::RangeEntry& Medium::range_for(double tx_power_dbm) {
  for (const RangeEntry& e : range_cache_) {
    if (e.dbm == tx_power_dbm) return e;
  }
  RangeEntry e;
  e.dbm = tx_power_dbm;
  e.box_r = propagation_.max_range(tx_power_dbm);
  // A negative link budget means the exact model rejects every distance
  // (below sensitivity even at the 1 m clamp); range_sq = -1 rejects every
  // d² the same way. At budget >= 0, d² <= max_range² accepts exactly the
  // distances the exact `deliverable()` predicate accepts.
  const auto& p = propagation_.config();
  const double budget =
      tx_power_dbm - p.reference_loss_db - p.rx_sensitivity_dbm;
  if (budget >= 0.0) e.range_sq = e.box_r * e.box_r;
  range_cache_.push_back(e);
  return range_cache_.back();
}

double Medium::survivor_rx_dbm(double tx_dbm, double dist_sq, Position tx_pos,
                               Position rx_pos) const {
  if (cfg_.pathloss_lut && lut_.covers(dist_sq)) {
    return lut_.rx_power_dbm_sq(tx_dbm, dist_sq);
  }
  return propagation_.rx_power_dbm(tx_dbm, distance(tx_pos, rx_pos));
}

void Medium::set_position(RadioId id, Position pos) {
  const std::uint32_t slot = live_slot(id);
  require_finite(pos, "set_position");
  RadioState& st = slots_[slot];
  st.pos = pos;
  if (!cfg_.spatial_grid) return;
  const std::uint64_t key = cell_of(pos);
  if (st.in_grid && key == st.cell) {
    // Same cell: refresh the bucket's position mirror in place.
    if (CellBucket* e = find_bucket(st.cell, st.part)) {
      const BucketRef& b = e->bucket;
      const std::size_t idx = bucket_locate(b, slot);
      if (idx != kNpos) {
        arena_xs_[b.offset + idx] = pos.x;
        arena_ys_[b.offset + idx] = pos.y;
      }
    }
    return;
  }
  grid_erase(slot);
  grid_insert(slot);
}

void Medium::set_tx_power(RadioId id, double dbm) {
  auto& st = state(id);
  require_finite_power(propagation_, dbm, "set_tx_power");
  st.tx_power_dbm = dbm;
  if (!cfg_.spatial_grid) return;
  if (dbm > max_tx_power_dbm_) {
    max_tx_power_dbm_ = dbm;
    rebuild_lut();
    if (propagation_.max_range(max_tx_power_dbm_) > cell_size_) grid_rebuild();
  }
}

void Medium::set_channel(RadioId id, std::uint8_t ch) {
  const std::uint32_t slot = live_slot(id);
  slots_[slot].channel = ch;
  refile(slot);
}

void Medium::set_sink(RadioId id, FrameSink* sink) {
  const std::uint32_t slot = live_slot(id);
  rx_sinks_[slot] = sink;
  refile(slot);
}

void Medium::set_rx_address(RadioId id,
                            std::optional<dot11::MacAddress> addr) {
  const std::uint32_t slot = live_slot(id);
  RadioState& st = slots_[slot];
  if (st.rx_address == addr) return;
  if (st.rx_address) addr_erase(addr_key(*st.rx_address), slot);
  st.rx_address = addr;
  if (addr) addrs_.insert({addr_key(*addr), slot});
  refile(slot);
}

std::uint64_t Medium::addr_key(const dot11::MacAddress& addr) {
  std::uint64_t v = 0;
  for (const std::uint8_t o : addr.octets()) v = v << 8 | o;
  return v;  // 48 bits: never kNoAddr
}

void Medium::addr_erase(std::uint64_t key, std::uint32_t slot) {
  AddrEntry* e = addrs_.find(probe_mix(key), [&](const AddrEntry& a) {
    return a.key == key && a.slot == slot;
  });
  if (e != nullptr) addrs_.erase(e);  // absent: not registered
}

Medium::Transmission& Medium::acquire_txn() {
  if (free_txns_.empty()) {
    all_txns_.push_back(std::make_unique<Transmission>());
    free_txns_.push_back(all_txns_.back().get());
  }
  Transmission* t = free_txns_.back();
  free_txns_.pop_back();
  return *t;
}

void Medium::transmit(RadioId from, const dot11::Frame& frame) {
  auto& st = state(from);
  ++transmissions_;

  Transmission& t = acquire_txn();
  t.from = from;
  t.epoch = st.queue_epoch;
  t.tx_pos = st.pos;
  t.tx_dbm = st.tx_power_dbm;
  t.channel = st.channel;
  t.erased = false;
  t.frame_ok = false;
  t.lossy = false;

  // Round-trip through the wire format once, at transmit time: every
  // receiver shares the parsed result instead of deliver() re-parsing the
  // byte vector per transmission. Receivers still only ever see what
  // survives serialization. The one serialization also yields the wire
  // size, so airtime needs no second walk over the frame tree.
  const std::size_t bytes = dot11::serialize_into(frame, t.wire);
  const SimTime air =
      dot11::airtime(bytes, cfg_.mgmt_rate_mbps) * cfg_.contention_factor;
  SimTime occupancy = air;

  if (trace_ != nullptr) {
    trace_->record(events_.now(), obs::Category::kMedium,
                   obs::Event::kTransmit, from, bytes);
  }

  // Fault injection. Every TX-side draw is keyed by (seed, radio, frame
  // sequence) and its own decision and attempt, so nothing else in the
  // simulation can perturb it; deliver() keys each link's erasure draw by
  // the same (radio, sequence) plus the receiver. A failed attempt of a
  // *unicast* management frame — an ambient collision at the addressed
  // receiver (no ACK comes back) or an interference burst corrupting the
  // attempt — is retransmitted up to retry_limit times, each retry paying a
  // contention backoff (scaled like airtime by the contention factor) plus
  // the frame's airtime again: the link layer repairs loss by spending the
  // 40-response scan budget. Broadcasts are unacknowledged and get exactly
  // one attempt, eating the full per-receiver loss in deliver().
  bool damaged = false;  // the fault model flipped bits in t.wire
  if (fault_.enabled()) {
    t.lossy = true;
    t.fault_seq = st.tx_seq++;
    const FaultModel::TxKey key = fault_.tx_key(from, t.fault_seq);
    const bool unicast = !frame.header.addr1.is_multicast();
    // Per attempt: collision at the receiver, then a corruption burst.
    bool collided = unicast && fault_.collides(key, 0);
    bool corrupted = fault_.corrupts(key, 0);
    int attempt = 0;
    while ((collided || corrupted) && unicast &&
           attempt < fault_.config().retry_limit) {
      ++attempt;
      ++st.tx_retries;
      ++retries_;
      occupancy +=
          fault_.backoff(key, attempt) * cfg_.contention_factor + air;
      if (trace_ != nullptr) {
        trace_->record(events_.now(), obs::Category::kFault,
                       obs::Event::kRetry, from,
                       static_cast<std::uint64_t>(attempt));
      }
      collided = fault_.collides(key, attempt);
      corrupted = fault_.corrupts(key, attempt);
    }
    if (unicast && (collided || corrupted)) ++drops_.retry_exhausted;
    if (collided) {
      // Retry budget exhausted on a collision: the frame never reached its
      // receiver at all.
      t.erased = true;
      ++drops_.collision;
      if (trace_ != nullptr) {
        trace_->record(events_.now(), obs::Category::kFault,
                       obs::Event::kDropCollision, from,
                       static_cast<std::uint64_t>(attempt));
      }
    } else if (corrupted) {
      // Retry budget exhausted on a burst (or a corrupted broadcast): the
      // delivered bytes carry real bit damage and every receiver's FCS
      // check will reject them.
      ++frames_corrupted_;
      fault_.corrupt(t.wire, key);
      damaged = true;
    }
  }

  // Decode into the transmission's own frame slot (reusing IE storage from
  // the slot's previous use). Skipped when the frame was erased — it will
  // never be delivered. This is every receiver's FCS check, and it runs
  // only on damaged bytes: the FCS serialize_into() just wrote is the CRC-32
  // of the bytes before it, so undamaged bytes cannot fail it. Damaged ones
  // are accepted or rejected by the real CRC-32 over what the burst left.
  if (!t.erased) {
    t.frame_ok = (!damaged || dot11::fcs_ok(t.wire)) &&
                 dot11::decode_into(t.wire, t.frame);
  }

  const SimTime start = std::max(events_.now(), st.tx_busy_until);
  const SimTime done = start + occupancy;
  st.tx_busy_until = done;
  ++st.tx_backlog;

  // Everything the delivery needs lives in the pooled transmission, so the
  // closure is two pointers — inline in the event queue's SmallFn, no heap.
  events_.post_at(done, [this, txn = &t] {
    finish_transmission(*txn);
    free_txns_.push_back(txn);
  });
}

void Medium::finish_transmission(Transmission& t) {
  const std::uint32_t slot = slot_of(t.from);
  if (slot != kNoSlot) {
    RadioState& st = slots_[slot];
    if (st.queue_epoch != t.epoch) return;  // queue was cleared
    --st.tx_backlog;
    ++st.frames_sent;
  }
  if (t.erased) return;  // collided away after the full retry budget
  if (!t.frame_ok) {
    // Corrupted on the wire — a real receiver drops bad-FCS frames silently.
    ++drops_.crc_reject;
    if (trace_ != nullptr) {
      trace_->record(events_.now(), obs::Category::kFault,
                     obs::Event::kDropCrcReject, t.from, t.wire.size());
    }
    return;
  }
  deliver(t);
}

void Medium::deliver_batched(const Transmission& t) {
  // Survivors are snapshotted into scratch before any sink runs: a sink
  // callback may attach/detach radios, move them or change their receive
  // address, mutating the indexes under us. The member scratch is reused
  // across calls; reentrant delivery (a sink pumping the event queue) falls
  // back to a local.
  std::vector<Survivor> local;
  std::vector<Survivor>& cand =
      deliver_depth_ == 0 ? survivor_scratch_ : local;
  cand.clear();
  ++deliver_depth_;
  struct DepthGuard {
    int& depth;
    ~DepthGuard() { --depth; }
  } guard{deliver_depth_};

  const RadioId from = t.from;
  const Position tx_pos = t.tx_pos;
  const double tx_power_dbm = t.tx_dbm;
  const RangeEntry re = range_for(tx_power_dbm);
  const std::uint32_t self = static_cast<std::uint32_t>(from - 1);
  const dot11::MacAddress& to = t.frame.header.addr1;
  const bool group = to.is_multicast();

  // The channel's listener partitions that can act on this frame: monitors,
  // APs and stations for a group-addressed frame, minus stations for a probe
  // request; monitors only for a unicast one, whose addressees come from the
  // address index. Radios on other channels, non-listeners (partition 0),
  // unicast bystanders and stations a probe request cannot reach never cost
  // a cache line. Nor does a partition whose only member is the sender: it
  // cannot yield a survivor, so none of its cells is probed.
  const std::uint16_t base = static_cast<std::uint16_t>((t.channel + 1u) << 2);
  const std::uint16_t listeners[3] = {static_cast<std::uint16_t>(base | 1),
                                      base,
                                      static_cast<std::uint16_t>(base | 2)};
  const int nlisteners = !group ? 1 : skips_stations(t.frame) ? 2 : 3;
  const RadioState& sender = slots_[self];
  std::uint16_t parts[3];
  int nparts = 0;
  for (int p = 0; p < nlisteners; ++p) {
    const std::uint16_t part = listeners[p];
    const std::uint32_t own = sender.in_grid && sender.part == part ? 1 : 0;
    if (part_count_[part] > own) parts[nparts++] = part;
  }

  // Probe those partitions in every cell the range box overlaps. Each bucket
  // is normalized to ascending slot order (merging any churn tail) and
  // filtered in the squared-distance domain — no sqrt/log10 for radios that
  // turn out to be out of range — so its survivors form one sorted run. The
  // range box spans at most 3x3 cells, three partitions each; a unicast
  // frame probes one partition and adds the addressee run. At most 27 runs.
  struct Run {
    std::uint32_t begin;
    std::uint32_t end;
  };
  constexpr int kMaxRuns = 27;
  Run runs[kMaxRuns];
  int nruns = 0;
  const BucketRef* probed[kMaxRuns];
  int nprobed = 0;
  std::size_t loaded = 0;
  const std::int64_t cx0 = cell_coord(tx_pos.x - re.box_r);
  const std::int64_t cx1 = cell_coord(tx_pos.x + re.box_r);
  const std::int64_t cy0 = cell_coord(tx_pos.y - re.box_r);
  const std::int64_t cy1 = cell_coord(tx_pos.y + re.box_r);
  for (std::int64_t cx = cx0; nparts > 0 && cx <= cx1; ++cx) {
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      const std::uint64_t cell = cell_key(cx, cy);
      for (int p = 0; p < nparts; ++p) {
        CellBucket* entry = find_bucket(cell, parts[p]);
        if (entry == nullptr) continue;
        bucket_normalize(entry->bucket);
        loaded += entry->bucket.size;
        probed[nprobed++] = &entry->bucket;
      }
    }
  }

  // Branch-free filter: every candidate is written at the cursor, which
  // then advances only past a survivor; `<=` is false for a NaN distance,
  // so NaN still rejects. The scratch grows once per fanout by every
  // candidate the probes found, without initialising them (see Survivor),
  // and shrinks back to the survivors.
  cand.resize(loaded);
  Survivor* const out = cand.data();
  std::size_t n = 0;
  for (int i = 0; i < nprobed; ++i) {
    const BucketRef& b = *probed[i];
    const std::uint32_t* slots = arena_slots_.data() + b.offset;
    const double* xs = arena_xs_.data() + b.offset;
    const double* ys = arena_ys_.data() + b.offset;
    const std::uint32_t size = b.size;
    const std::size_t begin = n;
    for (std::uint32_t k = 0; k < size; ++k) {
      const std::uint32_t slot = slots[k];
      const double x = xs[k];
      const double y = ys[k];
      const double dx = x - tx_pos.x;
      const double dy = y - tx_pos.y;
      const double dist_sq = dx * dx + dy * dy;
      out[n] = {slot, dist_sq, x, y};
      n += static_cast<std::size_t>((dist_sq <= re.range_sq) & (slot != self));
    }
    if (n > begin) {
      runs[nruns++] = {static_cast<std::uint32_t>(begin),
                       static_cast<std::uint32_t>(n)};
    }
  }
  cand.resize(n);

  // Unicast: the radios registered under addr1, through the same self,
  // channel, sink and d² checks their bucket would have applied.
  if (!group) {
    ++fanout_stats_.unicast;
    const std::size_t begin = cand.size();
    const std::uint64_t key = addr_key(to);
    addrs_.for_each_in_run(probe_mix(key), [&](const AddrEntry& a) {
      if (a.key != key) return;
      ++loaded;
      const std::uint32_t slot = a.slot;
      const RadioState& st = slots_[slot];
      if (slot == self || st.channel != t.channel ||
          rx_sinks_[slot] == nullptr) {
        return;
      }
      const double dx = st.pos.x - tx_pos.x;
      const double dy = st.pos.y - tx_pos.y;
      const double dist_sq = dx * dx + dy * dy;
      if (!(dist_sq <= re.range_sq)) return;
      cand.push_back({slot, dist_sq, st.pos.x, st.pos.y});
    });
    // Probe order is table order; a shared address may list several slots.
    std::sort(cand.begin() + static_cast<std::ptrdiff_t>(begin), cand.end(),
              [](const Survivor& a, const Survivor& b) {
                return a.slot < b.slot;
              });
    if (cand.size() == begin) {
      ++fanout_stats_.unicast_unheard;
    } else {
      runs[nruns++] = {static_cast<std::uint32_t>(begin),
                       static_cast<std::uint32_t>(cand.size())};
    }
  }
  ++fanout_stats_.fanouts;
  fanout_stats_.candidates_loaded += loaded;

  // Merge by repeated min-pick over the sorted runs: survivors come out in
  // global slot order == radio-id order, so sinks run in the same order as
  // the legacy id-ordered scan. Run heads live in flat arrays the min-scan
  // reads without indirection; an exhausted run parks at kNoSlot, which no
  // live slot can beat, so the scan needs no emptiness branches.
  std::uint32_t run_cur[kMaxRuns];
  std::uint32_t head_slot[kMaxRuns];
  for (int i = 0; i < nruns; ++i) {
    run_cur[i] = runs[i].begin;
    head_slot[i] = cand[run_cur[i]].slot;
  }

  while (nruns > 0) {
    int best = 0;
    for (int i = 1; i < nruns; ++i) {
      if (head_slot[i] < head_slot[best]) best = i;
    }
    if (head_slot[best] == kNoSlot) break;  // every run exhausted
    const Survivor c = cand[run_cur[best]++];
    head_slot[best] = run_cur[best] != runs[best].end
                          ? cand[run_cur[best]].slot
                          : kNoSlot;
    // A sink callback from an earlier candidate may have detached this
    // radio (or cleared its sink) mid-fanout; skip it, exactly as the
    // legacy scan does. The receive column is read by index every time:
    // an earlier callback may also have attached radios and reallocated it.
    FrameSink* const sink = rx_sinks_[c.slot];
    if (sink == nullptr) continue;
    const RadioId rx_id = static_cast<RadioId>(c.slot) + 1;
    const Position rx_pos{c.x, c.y};  // frozen at gather time
    double rx_dbm;
    if (t.lossy) {
      // The erasure draw below must see bit-identical RX power to the
      // legacy scan, so lossy runs always take the exact hypot + log10
      // road; survivors then reuse the same value as their RSSI.
      rx_dbm =
          propagation_.rx_power_dbm(tx_power_dbm, distance(tx_pos, rx_pos));
      const double loss =
          group ? fault_.link_loss(rx_dbm) : fault_.per(rx_dbm);
      if (fault_.link_draw(from, t.fault_seq, rx_id) < loss) {
        ++slots_[c.slot].rx_lost;
        ++drops_.erasure;
        if (trace_ != nullptr) {
          trace_->record(events_.now(), obs::Category::kFault,
                         obs::Event::kDropErasure, rx_id, from);
        }
        continue;
      }
    } else {
      rx_dbm = survivor_rx_dbm(tx_power_dbm, c.dist_sq, tx_pos, rx_pos);
    }
    RxInfo info;
    info.rssi_dbm = rx_dbm;
    info.time = events_.now();
    info.channel = t.channel;
    ++rx_frames_[c.slot];
    ++deliveries_;
    if (trace_ != nullptr) {
      trace_->record(events_.now(), obs::Category::kMedium,
                     obs::Event::kDeliver, rx_id, from);
    }
    sink->on_frame(t.frame, info);
  }
}

void Medium::deliver(const Transmission& t) {
  if (cfg_.spatial_grid && !cells_.empty()) {
    deliver_batched(t);
    return;
  }

  // Legacy full scan — the test oracle: every attached radio in id order,
  // exact per-candidate math. Snapshot receiver candidates first: a sink
  // callback may attach/detach radios. The member scratch vector is reused
  // across calls; reentrant delivery (a sink pumping the event queue) falls
  // back to a local.
  std::vector<Candidate> local;
  std::vector<Candidate>& targets =
      deliver_depth_ == 0 ? deliver_scratch_ : local;
  targets.clear();
  ++deliver_depth_;
  struct DepthGuard {
    int& depth;
    ~DepthGuard() { --depth; }
  } guard{deliver_depth_};

  // The address filter and the role rule apply here, at gather time, like
  // the grid's: a unicast frame skips every addressed radio whose address is
  // not addr1, and a group-addressed probe request skips stations.
  const dot11::MacAddress& to = t.frame.header.addr1;
  const bool group = to.is_multicast();
  const bool skip_stations = skips_stations(t.frame);
  targets.reserve(active_slots_.size());
  for (const std::uint32_t slot : active_slots_) {
    const RadioState& st = slots_[slot];
    const RadioId id = static_cast<RadioId>(slot) + 1;
    if (id == t.from || st.channel != t.channel ||
        rx_sinks_[slot] == nullptr) {
      continue;
    }
    if (!group && st.rx_address && *st.rx_address != to) continue;
    if (skip_stations && st.rx_address && st.role == RxRole::kStation) {
      continue;
    }
    targets.push_back({id, slot, distance(t.tx_pos, st.pos)});
  }

  // Candidate slots stay valid until the topology changes; only after a
  // sink callback attaches or detaches a radio do we pay the id lookup
  // again (a detached candidate is skipped, as before). The distance was
  // frozen into the candidate at gather time — see Candidate::d — so a
  // callback moving radios mid-fanout does not alter this frame's fanout.
  const std::uint64_t epoch = topology_epoch_;
  for (const Candidate& c : targets) {
    std::uint32_t slot = c.slot;
    if (topology_epoch_ != epoch) {
      slot = slot_of(c.id);
      if (slot == kNoSlot) continue;  // detached by an earlier callback
    }
    FrameSink* const sink = rx_sinks_[slot];
    if (sink == nullptr) continue;  // sink revoked by an earlier callback
    const double d = c.d;
    if (!propagation_.deliverable(t.tx_dbm, d)) continue;
    const double rx_dbm = propagation_.rx_power_dbm(t.tx_dbm, d);
    if (t.lossy &&
        fault_.link_draw(t.from, t.fault_seq, c.id) <
            (group ? fault_.link_loss(rx_dbm) : fault_.per(rx_dbm))) {
      // Erased on this link. Broadcasts eat the full loss (SNR-derived PER
      // plus the ambient collision floor); unicast frames already paid the
      // ambient floor in the ACK-driven retry loop at TX, so only the
      // edge-of-range SNR loss — which no retransmission repairs — applies
      // here. The draw is keyed by (transmission, receiver), so it is the
      // same whichever other radios are in range.
      ++slots_[slot].rx_lost;
      ++drops_.erasure;
      if (trace_ != nullptr) {
        trace_->record(events_.now(), obs::Category::kFault,
                       obs::Event::kDropErasure, c.id, t.from);
      }
      continue;
    }
    RxInfo info;
    info.rssi_dbm = rx_dbm;
    info.time = events_.now();
    info.channel = t.channel;
    ++rx_frames_[slot];
    ++deliveries_;
    if (trace_ != nullptr) {
      trace_->record(events_.now(), obs::Category::kMedium,
                     obs::Event::kDeliver, c.id, t.from);
    }
    sink->on_frame(t.frame, info);
  }
}

// --- Radio handle methods ---

Position Radio::position() const { return medium_->state(id_).pos; }
void Radio::set_position(Position p) { medium_->set_position(id_, p); }
std::uint8_t Radio::channel() const { return medium_->state(id_).channel; }
void Radio::set_channel(std::uint8_t ch) { medium_->set_channel(id_, ch); }
double Radio::tx_power_dbm() const { return medium_->state(id_).tx_power_dbm; }
void Radio::set_tx_power_dbm(double dbm) { medium_->set_tx_power(id_, dbm); }
void Radio::set_sink(FrameSink* sink) { medium_->set_sink(id_, sink); }
void Radio::set_rx_address(std::optional<dot11::MacAddress> addr) {
  medium_->set_rx_address(id_, addr);
}

void Radio::transmit(const dot11::Frame& frame) {
  medium_->transmit(id_, frame);
}

std::size_t Radio::tx_backlog() const { return medium_->state(id_).tx_backlog; }

void Radio::clear_tx_queue() {
  auto& st = medium_->state(id_);
  ++st.queue_epoch;
  st.tx_backlog = 0;
  st.tx_busy_until = medium_->events_.now();
}

std::uint64_t Radio::frames_sent() const {
  return medium_->state(id_).frames_sent;
}
std::uint64_t Radio::frames_received() const {
  return medium_->rx_frames_[medium_->live_slot(id_)];
}
std::uint64_t Radio::tx_retries() const {
  return medium_->state(id_).tx_retries;
}
std::uint64_t Radio::frames_lost() const {
  return medium_->state(id_).rx_lost;
}

}  // namespace cityhunter::medium
