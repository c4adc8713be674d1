// The attacker's SSID database (paper Fig 3, steps 1-2).
//
// Each record carries: the SSID, its weight (initialised from WiGLE rank
// weights, bumped by hits and by re-observations in direct probes), its
// provenance, and its hit history (count + time of latest hit = freshness).
//
// Records are append-only, so a record's index in records() is a dense,
// stable id (SsidId). The attacker's per-client bookkeeping, the selection
// buffers and the response trains all name SSIDs by that id and read the
// string from the record only when a frame is built.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/sim_time.h"

namespace cityhunter::core {

using support::SimTime;

/// Index of a record in SsidDatabase::records().
using SsidId = std::uint32_t;

enum class SsidSource : std::uint8_t {
  kWigleNearby,   // among the 100 free APs nearest the attack location
  kWiglePopular,  // among the 200 highest heat-value (or AP-count) SSIDs
  kDirectProbe,   // learned on site from a disclosed PNL
  kCarrierSeed,   // operator hotspot SSIDs added out of band (§V-B)
};

const char* to_string(SsidSource s);

struct SsidRecord {
  std::string ssid;
  double weight = 1.0;
  SsidSource source = SsidSource::kDirectProbe;
  int hits = 0;
  std::optional<SimTime> last_hit;
  SimTime added;
  std::uint64_t insertion_order = 0;
};

class SsidDatabase {
 public:
  /// Insert a new SSID or, when present, raise the existing weight to at
  /// least `weight` (a WiGLE re-seed never downgrades a learned SSID).
  /// Returns true when the SSID was new.
  bool add(const std::string& ssid, double weight, SsidSource source,
           SimTime now);

  /// Re-observation bonus: the SSID appeared in a direct probe on site.
  /// Adds the SSID when unknown (initial weight `initial_weight`), else
  /// bumps its weight by `seen_bonus`.
  void observe_direct(const std::string& ssid, double initial_weight,
                      double seen_bonus, SimTime now);

  /// A successful hit through this SSID: weight += `hit_bonus`, hit count
  /// and freshness updated. Unknown SSIDs are ignored.
  void record_hit(const std::string& ssid, double hit_bonus, SimTime now);

  /// Make room for `n` records in all, so that adding up to that many
  /// regrows neither the records nor the SSID index.
  void reserve(std::size_t n) {
    records_.reserve(n);
    index_.reserve(n);
  }

  bool contains(const std::string& ssid) const {
    return index_.count(ssid) != 0;
  }
  const SsidRecord* find(const std::string& ssid) const;
  /// Id of the record for `ssid`, if the database holds it.
  std::optional<SsidId> find_id(const std::string& ssid) const;
  std::size_t size() const { return records_.size(); }

  /// Ids of all records by descending weight (stable: insertion order
  /// breaks ties), brought up to date in `out`. An empty `out` is built
  /// with a full sort, O(n log n). Otherwise `out` must hold this
  /// database's order from an earlier version: the ids added since are
  /// appended and one insertion pass restores the order, linear when one
  /// record moved. Attacker code keeps the order between mutations; after
  /// replacing the database (assignment, restore) pass an empty `out`.
  void by_weight(std::vector<SsidId>& out) const;

  /// Ids of the records with at least one hit, most recent hit first,
  /// written over `out`.
  void by_freshness(std::vector<SsidId>& out) const;

  std::size_t count_from(SsidSource source) const;

  /// Monotonic mutation counter — lets callers cache sorted views.
  std::uint64_t version() const { return version_; }

  /// Insertion-ordered backing records, indexed by SsidId — the database's
  /// full state, which the campaign checkpoint (sim/checkpoint) serializes
  /// verbatim.
  const std::vector<SsidRecord>& records() const { return records_; }

  /// Rebuild the database from checkpointed records (must be in insertion
  /// order). The index and insertion counter are reconstructed so that
  /// subsequent add()/record_hit() behaviour is bit-identical to the
  /// database the records were captured from.
  void restore(std::vector<SsidRecord> records);

 private:
  std::vector<SsidRecord> records_;
  std::unordered_map<std::string, std::size_t> index_;
  std::uint64_t next_order_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace cityhunter::core
