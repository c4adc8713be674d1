#include "medium/medium.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dot11/serialize.h"
#include "dot11/timing.h"
#include "obs/trace.h"

namespace cityhunter::medium {

Medium::Medium(EventQueue& events) : Medium(events, Config()) {}

Medium::Medium(EventQueue& events, Config cfg)
    : events_(events),
      cfg_(cfg),
      propagation_(cfg.propagation),
      fault_(cfg.fault) {
  // Negated comparisons so NaN is rejected too.
  if (!(cfg_.contention_factor > 0.0)) {
    throw std::invalid_argument(
        "Medium: contention_factor must be positive");
  }
  if (!(cfg_.mgmt_rate_mbps > 0.0)) {
    throw std::invalid_argument("Medium: mgmt_rate_mbps must be positive");
  }
}

Medium::~Medium() = default;

Radio Medium::attach(Position pos, std::uint8_t channel, double tx_power_dbm,
                     FrameSink* sink,
                     std::optional<dot11::MacAddress> rx_address) {
  if (slots_.size() >= static_cast<std::size_t>(kNoSlot) - 1) {
    throw std::length_error("Medium: radio id space exhausted");
  }
  const RadioId id = next_id_++;
  // Slots are never recycled: slot ≡ id − 1 for the radio's whole lifetime,
  // which makes slot order identical to id order and lets the batched
  // fanout merge sorted grid buckets instead of sorting candidates.
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  RadioState& st = slots_.back();
  st.pos = pos;
  st.channel = channel;
  st.tx_power_dbm = tx_power_dbm;
  st.sink = sink;
  st.rx_address = rx_address;
  if (rx_address) addr_insert(addr_key(*rx_address), slot);
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
    grid_insert(slot, st);
  }
  return Radio(this, id);
}

void Medium::detach(Radio& radio) {
  const std::uint32_t slot = slot_of(radio.id_);
  if (slot != kNoSlot) {
    RadioState& st = slots_[slot];
    grid_erase(st, slot);
    if (st.rx_address) addr_erase(addr_key(*st.rx_address), slot);
    st.rx_address.reset();
    st.attached = false;
    st.sink = nullptr;
    const auto it =
        std::lower_bound(active_slots_.begin(), active_slots_.end(), slot);
    if (it != active_slots_.end() && *it == slot) active_slots_.erase(it);
    ++topology_epoch_;
  }
  radio.medium_ = nullptr;
}

Medium::RadioSnapshot Medium::export_radio(Radio& radio) {
  const RadioState& st = state(radio.id_);
  const RadioSnapshot snapshot{st.pos,           st.channel,
                               st.tx_power_dbm,  st.rx_address,
                               st.frames_sent,   st.frames_received,
                               st.tx_seq,        st.tx_retries,
                               st.rx_lost};
  detach(radio);
  return snapshot;
}

Radio Medium::import_radio(const RadioSnapshot& snapshot, FrameSink* sink) {
  Radio radio = attach(snapshot.pos, snapshot.channel, snapshot.tx_power_dbm,
                       sink, snapshot.rx_address);
  RadioState& st = state(radio.id_);
  st.frames_sent = snapshot.frames_sent;
  st.frames_received = snapshot.frames_received;
  st.tx_seq = snapshot.tx_seq;
  st.tx_retries = snapshot.tx_retries;
  st.rx_lost = snapshot.rx_lost;
  return radio;
}

Medium::RadioState& Medium::state(RadioId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::logic_error("Medium: use of detached radio");
  }
  return slots_[slot];
}

const Medium::RadioState& Medium::state(RadioId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::logic_error("Medium: use of detached radio");
  }
  return slots_[slot];
}

std::int64_t Medium::cell_coord(double v) const {
  return static_cast<std::int64_t>(std::floor(v / cell_size_));
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
  for (auto& [cell, ce] : cells_) {
    for (auto& [part, bid] : ce.parts) {
      BucketRef& b = buckets_[bid];
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
    }
  }
  arena_slots_.swap(slots);
  arena_xs_.swap(xs);
  arena_ys_.swap(ys);
  arena_garbage_ = 0;
  ++arena_compactions_;
}

Medium::BucketRef* Medium::find_bucket(std::uint64_t cell,
                                       std::uint16_t part) {
  const auto it = cells_.find(cell);
  if (it == cells_.end()) return nullptr;
  for (auto& [p, bid] : it->second.parts) {
    if (p == part) return &buckets_[bid];
    if (p > part) break;  // directory is sorted by partition key
  }
  return nullptr;
}

Medium::BucketRef& Medium::find_or_create_bucket(std::uint64_t cell,
                                                 std::uint16_t part) {
  CellEntry& ce = cells_[cell];
  const auto it = std::lower_bound(
      ce.parts.begin(), ce.parts.end(), part,
      [](const auto& e, std::uint16_t p) { return e.first < p; });
  if (it != ce.parts.end() && it->first == part) return buckets_[it->second];
  std::uint32_t id;
  if (!free_buckets_.empty()) {
    id = free_buckets_.back();
    free_buckets_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  ce.parts.insert(it, {part, id});
  BucketRef& b = buckets_[id];
  b.capacity = 4;
  b.offset = arena_alloc(b.capacity);
  b.size = 0;
  b.sorted = 0;
  return b;
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

void Medium::grid_insert(std::uint32_t slot, RadioState& st) {
  st.cell = cell_of(st.pos);
  st.part = listen_key(st);
  st.in_grid = true;
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

void Medium::grid_erase(RadioState& st, std::uint32_t slot) {
  if (!st.in_grid) return;
  st.in_grid = false;
  const auto it = cells_.find(st.cell);
  if (it == cells_.end()) return;
  CellEntry& ce = it->second;
  const auto pit = std::lower_bound(
      ce.parts.begin(), ce.parts.end(), st.part,
      [](const auto& e, std::uint16_t p) { return e.first < p; });
  if (pit == ce.parts.end() || pit->first != st.part) return;
  const std::uint32_t bid = pit->second;
  BucketRef& b = buckets_[bid];
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
    free_buckets_.push_back(bid);
    ce.parts.erase(pit);
    if (ce.parts.empty()) cells_.erase(it);
  }
}

std::uint16_t Medium::listen_key(const RadioState& st) {
  if (!st.attached || st.sink == nullptr) return 0;
  return static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(st.channel) + 1) << 1 |
      (st.rx_address ? 0 : 1));
}

void Medium::refile(std::uint32_t slot) {
  RadioState& st = slots_[slot];
  if (!st.in_grid || st.part == listen_key(st)) return;
  // The partition IS the fused key: a key change moves the radio to its new
  // (cell, key) bucket. The erase pays at most one prefix shift; the
  // re-insert is an O(1) churn-tail append.
  grid_erase(st, slot);
  grid_insert(slot, st);
}

Medium::BucketOccupancy Medium::bucket_occupancy() const {
  BucketOccupancy occ;
  for_each_bucket([&occ](std::uint16_t, std::uint32_t size) {
    ++occ.buckets;
    occ.radios += size;
    occ.max_occupancy = std::max(occ.max_occupancy, size);
  });
  return occ;
}

void Medium::grid_rebuild() {
  cells_.clear();
  buckets_.clear();
  free_buckets_.clear();
  arena_slots_.clear();
  arena_xs_.clear();
  arena_ys_.clear();
  arena_live_ = 0;
  arena_garbage_ = 0;
  cell_size_ = std::max(1.0, propagation_.max_range(max_tx_power_dbm_));
  // active_slots_ is sorted, so every bucket is built by pure sorted-prefix
  // appends.
  for (const std::uint32_t slot : active_slots_) {
    grid_insert(slot, slots_[slot]);
  }
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
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::logic_error("Medium: use of detached radio");
  }
  RadioState& st = slots_[slot];
  st.pos = pos;
  if (!cfg_.spatial_grid) return;
  const std::uint64_t key = cell_of(pos);
  if (st.in_grid && key == st.cell) {
    // Same cell: refresh the bucket's position mirror in place.
    BucketRef* b = find_bucket(st.cell, st.part);
    if (b != nullptr) {
      const std::size_t idx = bucket_locate(*b, slot);
      if (idx != kNpos) {
        arena_xs_[b->offset + idx] = pos.x;
        arena_ys_[b->offset + idx] = pos.y;
      }
    }
    return;
  }
  grid_erase(st, slot);
  grid_insert(slot, st);
}

void Medium::set_tx_power(RadioId id, double dbm) {
  auto& st = state(id);
  st.tx_power_dbm = dbm;
  if (!cfg_.spatial_grid) return;
  if (dbm > max_tx_power_dbm_) {
    max_tx_power_dbm_ = dbm;
    rebuild_lut();
    if (propagation_.max_range(max_tx_power_dbm_) > cell_size_) grid_rebuild();
  }
}

void Medium::set_channel(RadioId id, std::uint8_t ch) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::logic_error("Medium: use of detached radio");
  }
  slots_[slot].channel = ch;
  refile(slot);
}

void Medium::set_sink(RadioId id, FrameSink* sink) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::logic_error("Medium: use of detached radio");
  }
  slots_[slot].sink = sink;
  refile(slot);
}

void Medium::set_rx_address(RadioId id,
                            std::optional<dot11::MacAddress> addr) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::logic_error("Medium: use of detached radio");
  }
  RadioState& st = slots_[slot];
  if (st.rx_address == addr) return;
  if (st.rx_address) addr_erase(addr_key(*st.rx_address), slot);
  st.rx_address = addr;
  if (addr) addr_insert(addr_key(*addr), slot);
  refile(slot);
}

std::uint64_t Medium::addr_key(const dot11::MacAddress& addr) {
  std::uint64_t v = 0;
  for (const std::uint8_t o : addr.octets()) v = v << 8 | o;
  return v;  // 48 bits: never kNoAddr
}

std::size_t Medium::addr_home(std::uint64_t key) const {
  // SplitMix-style finalizer: MACs that differ only in the low octets (a
  // vendor's sequential addresses) spread over the table.
  std::uint64_t h = key;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h) & (addr_table_.size() - 1);
}

void Medium::addr_insert(std::uint64_t key, std::uint32_t slot) {
  if ((addr_count_ + 1) * 2 > addr_table_.size()) {
    std::vector<AddrEntry> old(
        std::max<std::size_t>(16, 2 * addr_table_.size()),
        AddrEntry{kNoAddr, 0});
    old.swap(addr_table_);
    addr_count_ = 0;
    for (const AddrEntry& e : old) {
      if (e.key != kNoAddr) addr_insert(e.key, e.slot);
    }
  }
  const std::size_t mask = addr_table_.size() - 1;
  std::size_t i = addr_home(key);
  while (addr_table_[i].key != kNoAddr) i = (i + 1) & mask;
  addr_table_[i] = {key, slot};
  ++addr_count_;
}

void Medium::addr_erase(std::uint64_t key, std::uint32_t slot) {
  const std::size_t mask = addr_table_.size() - 1;
  std::size_t hole = addr_home(key);
  while (addr_table_[hole].key != key || addr_table_[hole].slot != slot) {
    if (addr_table_[hole].key == kNoAddr) return;  // not registered
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: an entry later in the probe run moves into the
  // hole unless its home lies cyclically in (hole, j] — then the hole would
  // cut it off from its home.
  for (std::size_t j = (hole + 1) & mask; addr_table_[j].key != kNoAddr;
       j = (j + 1) & mask) {
    const std::size_t home = addr_home(addr_table_[j].key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      addr_table_[hole] = addr_table_[j];
      hole = j;
    }
  }
  addr_table_[hole].key = kNoAddr;
  --addr_count_;
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

  // Fault injection. The TX-side stream is a pure function of (seed, radio,
  // frame sequence), so the draws below cannot be perturbed by anything
  // else in the simulation; deliver() keys each link's erasure draw by the
  // same (radio, sequence) plus the receiver. A failed attempt of a
  // *unicast* management frame — an ambient collision at the addressed
  // receiver (no ACK comes back) or an interference burst corrupting the
  // attempt — is retransmitted up to retry_limit times, each retry paying a
  // contention backoff (scaled like airtime by the contention factor) plus
  // the frame's airtime again: the link layer repairs loss by spending the
  // 40-response scan budget. Broadcasts are unacknowledged and get exactly
  // one attempt, eating the full per-receiver loss in deliver().
  if (fault_.enabled()) {
    t.lossy = true;
    t.fault_seq = st.tx_seq++;
    support::Rng rng = fault_.stream(from, t.fault_seq);
    const bool unicast = !frame.header.addr1.is_multicast();
    // Per attempt: collision at the receiver, then a corruption burst.
    // Both are drawn every attempt so the stream layout is fixed.
    bool collided = unicast && rng.chance(fault_.config().ambient_loss);
    bool corrupted = rng.chance(fault_.config().corruption_rate);
    int attempt = 0;
    while ((collided || corrupted) && unicast &&
           attempt < fault_.config().retry_limit) {
      ++attempt;
      ++st.tx_retries;
      ++retries_;
      occupancy +=
          fault_.backoff(attempt, rng) * cfg_.contention_factor + air;
      if (trace_ != nullptr) {
        trace_->record(events_.now(), obs::Category::kFault,
                       obs::Event::kRetry, from,
                       static_cast<std::uint64_t>(attempt));
      }
      collided = rng.chance(fault_.config().ambient_loss);
      corrupted = rng.chance(fault_.config().corruption_rate);
    }
    if (unicast && (collided || corrupted)) ++drops_.retry_exhausted;
    if (collided) {
      // Retry budget exhausted on a collision: the frame never reached its
      // receiver at all.
      t.erased = true;
      ++frames_lost_;
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
      fault_.corrupt(t.wire, rng);
    }
  }

  // Decode into the transmission's own frame slot (reusing IE storage from
  // the slot's previous use). Skipped when the frame was erased — it will
  // never be delivered.
  if (!t.erased) t.frame_ok = dot11::parse_into(t.wire, t.frame);

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
  // Listener partitions of the channel: addressed radios, then monitors.
  const std::uint16_t addressed = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(t.channel) + 1) << 1);
  const std::uint16_t monitor = addressed | 1;

  // Probe the channel's listener buckets of every cell the range box
  // overlaps — both partitions for a group-addressed frame, monitors only
  // for a unicast one: radios on other channels, non-listeners (partition
  // 0) and unicast bystanders never cost a cache line. Each bucket is
  // normalized to ascending slot order (merging any churn tail) and
  // filtered right away in the squared-distance domain — no sqrt/log10 for
  // radios that turn out to be out of range — so its survivors form one
  // sorted run. The range box spans at most 3x3 cells, two partitions
  // each, and a unicast frame adds the addressee run: at most 19 runs.
  struct Run {
    std::uint32_t begin;
    std::uint32_t end;
  };
  constexpr int kMaxRuns = 19;
  Run runs[kMaxRuns];
  int nruns = 0;
  std::size_t loaded = 0;
  const auto close_run = [&](std::size_t begin) {
    if (cand.size() > begin) {
      runs[nruns++] = {static_cast<std::uint32_t>(begin),
                       static_cast<std::uint32_t>(cand.size())};
    }
  };
  const std::int64_t cx0 = cell_coord(tx_pos.x - re.box_r);
  const std::int64_t cx1 = cell_coord(tx_pos.x + re.box_r);
  const std::int64_t cy0 = cell_coord(tx_pos.y - re.box_r);
  const std::int64_t cy1 = cell_coord(tx_pos.y + re.box_r);
  for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      const auto cell = cells_.find(cell_key(cx, cy));
      if (cell == cells_.end()) continue;
      for (const auto& [part, bid] : cell->second.parts) {
        if (part > monitor) break;  // directory is sorted by partition key
        if (part != monitor && !(group && part == addressed)) continue;
        BucketRef& b = buckets_[bid];
        if (b.size == 0) continue;
        bucket_normalize(b);
        loaded += b.size;
        const std::uint32_t* slots = arena_slots_.data() + b.offset;
        const double* xs = arena_xs_.data() + b.offset;
        const double* ys = arena_ys_.data() + b.offset;
        const std::size_t begin = cand.size();
        for (std::uint32_t k = 0; k < b.size; ++k) {
          if (slots[k] == self) continue;
          const double dx = xs[k] - tx_pos.x;
          const double dy = ys[k] - tx_pos.y;
          const double dist_sq = dx * dx + dy * dy;
          if (!(dist_sq <= re.range_sq)) continue;  // NaN-rejecting
          cand.push_back({slots[k], dist_sq, xs[k], ys[k]});
        }
        close_run(begin);
      }
    }
  }

  // Unicast: the radios registered under addr1, through the same self,
  // channel, sink and d² checks their bucket would have applied.
  if (!group) {
    ++fanout_stats_.unicast;
    const std::size_t begin = cand.size();
    if (!addr_table_.empty()) {
      const std::uint64_t key = addr_key(to);
      const std::size_t mask = addr_table_.size() - 1;
      for (std::size_t i = addr_home(key); addr_table_[i].key != kNoAddr;
           i = (i + 1) & mask) {
        if (addr_table_[i].key != key) continue;
        ++loaded;
        const std::uint32_t slot = addr_table_[i].slot;
        const RadioState& st = slots_[slot];
        if (slot == self || st.channel != t.channel || st.sink == nullptr) {
          continue;
        }
        const double dx = st.pos.x - tx_pos.x;
        const double dy = st.pos.y - tx_pos.y;
        const double dist_sq = dx * dx + dy * dy;
        if (!(dist_sq <= re.range_sq)) continue;
        cand.push_back({slot, dist_sq, st.pos.x, st.pos.y});
      }
    }
    // Probe order is table order; a shared address may list several slots.
    std::sort(cand.begin() + static_cast<std::ptrdiff_t>(begin), cand.end(),
              [](const Survivor& a, const Survivor& b) {
                return a.slot < b.slot;
              });
    if (cand.size() == begin) ++fanout_stats_.unicast_unheard;
    close_run(begin);
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
    RadioState& st = slots_[c.slot];
    // A sink callback from an earlier candidate may have detached this
    // radio (or cleared its sink) mid-fanout; skip it, exactly as the
    // legacy scan does.
    if (!st.attached || st.sink == nullptr) continue;
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
        ++st.rx_lost;
        ++frames_lost_;
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
    ++st.frames_received;
    ++deliveries_;
    if (trace_ != nullptr) {
      trace_->record(events_.now(), obs::Category::kMedium,
                     obs::Event::kDeliver, rx_id, from);
    }
    st.sink->on_frame(t.frame, info);
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

  // The address filter applies here, at gather time, like the grid's: a
  // unicast frame skips every addressed radio whose address is not addr1.
  const dot11::MacAddress& to = t.frame.header.addr1;
  const bool group = to.is_multicast();
  targets.reserve(active_slots_.size());
  for (const std::uint32_t slot : active_slots_) {
    const RadioState& st = slots_[slot];
    const RadioId id = static_cast<RadioId>(slot) + 1;
    if (id == t.from || st.channel != t.channel || st.sink == nullptr) {
      continue;
    }
    if (!group && st.rx_address && *st.rx_address != to) continue;
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
    auto& st = slots_[slot];
    if (st.sink == nullptr) continue;  // sink revoked by an earlier callback
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
      ++st.rx_lost;
      ++frames_lost_;
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
    ++st.frames_received;
    ++deliveries_;
    if (trace_ != nullptr) {
      trace_->record(events_.now(), obs::Category::kMedium,
                     obs::Event::kDeliver, c.id, t.from);
    }
    FrameSink* sink = st.sink;
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
  return medium_->state(id_).frames_received;
}
std::uint64_t Radio::tx_retries() const {
  return medium_->state(id_).tx_retries;
}
std::uint64_t Radio::frames_lost() const {
  return medium_->state(id_).rx_lost;
}

}  // namespace cityhunter::medium
