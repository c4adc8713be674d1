// Open-addressed hash table with linear probing and backward-shift erase.
//
// The Medium keeps two of them: the receive-address index (one entry per
// radio registered under an address, so a key may repeat) and the cell
// table ((cell, partition) → bucket window). Both need the same three
// things: walk the probe run from a hash's home entry to the first empty
// one, insert at the first empty entry of that run, and erase without
// tombstones. The table only grows, keeping its load at most 1/2, so a run
// is short and a miss stops at the first empty entry.
//
// `Traits` supplies the entry type and how to read it:
//   using Entry = ...;
//   static Entry unused();                       the unused marker
//   static bool empty(const Entry&);
//   static std::uint64_t hash(const Entry&);     mixed key of a used entry
// The table never compares keys itself: callers match entries inside the
// probe run of the key's hash, so a multimap and a map share the code.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cityhunter::medium {

/// MurmurHash3-style finalizer: keys that differ only in a few low bits (a
/// vendor's sequential MACs, neighbouring grid cells) spread over the table.
inline std::uint64_t probe_mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

template <typename Traits>
class ProbeTable {
 public:
  using Entry = typename Traits::Entry;

  bool empty() const { return count_ == 0; }

  /// First used entry in the probe run of `hash` that satisfies `match`,
  /// nullptr when the run ends first.
  template <typename Match>
  Entry* find(std::uint64_t hash, Match&& match) {
    if (table_.empty()) return nullptr;
    for (std::size_t i = hash & mask_; !Traits::empty(table_[i]);
         i = (i + 1) & mask_) {
      if (match(table_[i])) return &table_[i];
    }
    return nullptr;
  }

  /// Visit every used entry in the probe run of `hash`, in table order.
  /// Entries of other keys share the run: `fn` filters them out.
  template <typename Fn>
  void for_each_in_run(std::uint64_t hash, Fn&& fn) const {
    if (table_.empty()) return;
    for (std::size_t i = hash & mask_; !Traits::empty(table_[i]);
         i = (i + 1) & mask_) {
      fn(table_[i]);
    }
  }

  /// Store `e` at the first empty entry of its run; no duplicate check. The
  /// reference stays valid until the next insert or erase.
  Entry& insert(const Entry& e) {
    if ((count_ + 1) * 2 > table_.size()) grow();
    std::size_t i = Traits::hash(e) & mask_;
    while (!Traits::empty(table_[i])) i = (i + 1) & mask_;
    table_[i] = e;
    ++count_;
    return table_[i];
  }

  /// Remove the entry `e` points at (a pointer find() returned, with no
  /// insert or erase since).
  void erase(Entry* e) {
    std::size_t hole = static_cast<std::size_t>(e - table_.data());
    // Backward-shift deletion: an entry later in the run moves into the
    // hole unless its home lies cyclically in (hole, j] — then the hole
    // would cut it off from its home.
    for (std::size_t j = (hole + 1) & mask_; !Traits::empty(table_[j]);
         j = (j + 1) & mask_) {
      const std::size_t home = Traits::hash(table_[j]) & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = Traits::unused();
    --count_;
  }

  /// Visit every used entry in table order (callers must not depend on it).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Entry& e : table_) {
      if (!Traits::empty(e)) fn(e);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : table_) {
      if (!Traits::empty(e)) fn(e);
    }
  }

  /// Drop every entry and keep the capacity.
  void clear() {
    std::fill(table_.begin(), table_.end(), Traits::unused());
    count_ = 0;
  }

 private:
  void grow() {
    std::vector<Entry> old(std::max<std::size_t>(16, 2 * table_.size()),
                           Traits::unused());
    old.swap(table_);
    mask_ = table_.size() - 1;
    count_ = 0;
    for (const Entry& e : old) {
      if (!Traits::empty(e)) insert(e);
    }
  }

  std::vector<Entry> table_;  // power-of-two size
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

}  // namespace cityhunter::medium
