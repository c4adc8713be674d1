// Multi-district city layout for the sharded simulator (sim/shard).
//
// The continuous city is a cols × rows grid of square districts separated
// by RF guard gaps. A gap of at least 2 × max radio range guarantees that
// no transmission launched inside one district can reach a radio inside
// (or near) another: districts are RF-isolated islands, which is what lets
// each spatial shard own its districts' radios in a private Medium and
// still produce byte-identical deliveries at any shard count.
//
// Ownership is a partition of the whole plane, not just the district
// squares: each gap between two shard column groups is split at its
// midline, so a walker in the gap always has exactly one owner shard and
// the crossing of that midline is the (deterministic, geometric) handoff
// trigger. See DESIGN.md §5h for the containment argument that bounds how
// far a walker can penetrate past the midline before the next conservative
// barrier hands it off.
#pragma once

#include <cstddef>

#include "medium/geometry.h"

namespace cityhunter::world {

class DistrictGrid {
 public:
  struct Config {
    int cols = 8;           // 8 columns divide evenly into 1/2/4/8 shards
    int rows = 2;
    double district_m = 500.0;  // side of each square district
    /// Guard gap between adjacent districts. It must be at least twice
    /// (max radio range + the worst-case walker penetration past the gap
    /// midline) for the sharded city's isolation argument to hold;
    /// run_sharded_city validates this through
    /// sim::ConservativeBarrier::max_safe_lookahead.
    double gap_m = 136.0;
  };

  /// Column/row address of a district.
  struct Cell {
    int col = 0;
    int row = 0;
    bool operator==(const Cell&) const = default;
  };

  explicit DistrictGrid(Config cfg);

  const Config& config() const { return cfg_; }
  int cols() const { return cfg_.cols; }
  int rows() const { return cfg_.rows; }
  int districts() const { return cfg_.cols * cfg_.rows; }

  /// District pitch: one district plus one gap.
  double pitch() const { return cfg_.district_m + cfg_.gap_m; }
  /// City bounding box (first district origin at (0, 0), no trailing gap).
  double width() const { return cfg_.cols * pitch() - cfg_.gap_m; }
  double height() const { return cfg_.rows * pitch() - cfg_.gap_m; }

  /// District cell by flat index (row-major).
  Cell cell(int district_index) const {
    return {district_index % cfg_.cols, district_index / cfg_.cols};
  }
  /// South-west corner of a district square.
  medium::Position district_origin(Cell c) const {
    return {c.col * pitch(), c.row * pitch()};
  }

  /// True when `p` lies inside some district square; false in any gap (or
  /// outside the city box). Gap positions are where mobile clients stay
  /// radio-silent so no transmission ever straddles an ownership boundary.
  bool in_district(medium::Position p) const;
  bool in_gap(medium::Position p) const { return !in_district(p); }

  /// Owner column of `p`: the plane partition that splits every vertical
  /// gap at its midline. Always a valid column (clamped at the city edges).
  int owner_column(medium::Position p) const;

  /// Owner shard of `p` when the columns are split into `shards` contiguous
  /// groups. Requires cols() % shards == 0 (validated by the caller once).
  int owner_shard(medium::Position p, int shards) const {
    return owner_column(p) / (cfg_.cols / shards);
  }

  /// The point of district `c` at unit coordinates (u, v), each in
  /// [0, 1), mapped onto the square inset 0.5 m from its edges so a freshly
  /// placed radio is strictly inside it. Uniform draws give a uniform
  /// point.
  medium::Position sample_in(Cell c, double u, double v) const;

 private:
  Config cfg_;
};

}  // namespace cityhunter::world
