// Photo-derived city heat map (paper §IV-B, Fig 4, Table IV).
//
// The attacker cannot observe true people density; it *estimates* it by
// binning geotagged photos into a grid. An SSID's heat value is the sum of
// grid heat at each of its (WiGLE-known) AP positions. The top-200 SSIDs by
// heat get rank weights 200..1 (the ratio method of Barron & Barrett that
// the paper cites), and so do the 100 nearest SSIDs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "medium/geometry.h"
#include "world/photos.h"
#include "world/wigle.h"

namespace cityhunter::heatmap {

using medium::Position;

class HeatMap {
 public:
  /// Bin `photos` into cells of `cell_m` metres over a `width_m` x
  /// `height_m` grid. Throws std::invalid_argument unless all three are
  /// finite and positive.
  HeatMap(const world::PhotoSet& photos, double width_m, double height_m,
          double cell_m = 250.0);

  /// Heat (photo count) of the cell containing `p`; 0 outside the grid or
  /// for a NaN coordinate.
  double at(Position p) const;

  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }
  double cell_size() const { return cell_m_; }
  double cell(std::size_t col, std::size_t row) const {
    return grid_[row * cols_ + col];
  }
  double max_cell() const;

  /// CSV rendering (row per line) for Fig 4.
  std::string to_csv() const;
  /// Coarse ASCII rendering for terminals.
  std::string to_ascii(int max_cols = 72) const;

 private:
  bool inside(Position p) const;

  double width_m_, height_m_, cell_m_;
  std::size_t cols_, rows_;
  std::vector<double> grid_;
};

/// One scored SSID.
struct ScoredSsid {
  std::string ssid;
  double score = 0.0;  // heat value or AP count, depending on ranking
};

/// Top-`k` free SSIDs by heat value: the sum of grid heat at each of the
/// SSID's free AP positions in the WiGLE snapshot. One pass over the records
/// adds each SSID's terms in record order. Ties go to the smaller SSID.
std::vector<ScoredSsid> top_by_heat(const world::WigleDb& wigle,
                                    const HeatMap& heat, std::size_t k);

/// Top-`k` free SSIDs by WiGLE AP count, counted over free APs only (the
/// naive ranking of Table IV). Ties go to the smaller SSID.
std::vector<ScoredSsid> top_by_ap_count(const world::WigleDb& wigle,
                                        std::size_t k);

/// Rank weights after Barron & Barrett: the item ranked first among `n`
/// receives weight n, the last weight 1.
std::vector<double> rank_weights(std::size_t n);

}  // namespace cityhunter::heatmap
