#include "heatmap/heatmap.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace cityhunter::heatmap {

HeatMap::HeatMap(const world::PhotoSet& photos, double width_m,
                 double height_m, double cell_m)
    : width_m_(width_m), height_m_(height_m), cell_m_(cell_m) {
  // Negated comparisons so NaN is rejected too; an infinite extent or cell
  // has no grid.
  for (const double d : {width_m, height_m, cell_m}) {
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw std::invalid_argument(
          "HeatMap: dimensions must be finite and positive");
    }
  }
  // At least one cell per axis, even when the ratio underflows to 0.
  const double cols = std::max(1.0, std::ceil(width_m / cell_m));
  const double rows = std::max(1.0, std::ceil(height_m / cell_m));
  if (!(cols * rows <= static_cast<double>(grid_.max_size()))) {
    throw std::length_error("HeatMap: grid too large");
  }
  cols_ = static_cast<std::size_t>(cols);
  rows_ = static_cast<std::size_t>(rows);
  grid_.assign(cols_ * rows_, 0.0);
  for (const auto& p : photos.positions()) {
    if (!inside(p)) continue;
    const auto c = static_cast<std::size_t>(p.x / cell_m_);
    const auto r = static_cast<std::size_t>(p.y / cell_m_);
    grid_[r * cols_ + c] += 1.0;
  }
}

bool HeatMap::inside(Position p) const {
  // Every comparison is false for NaN, so a NaN coordinate is outside too
  // and never cast to a cell index.
  return p.x >= 0 && p.y >= 0 && p.x < width_m_ && p.y < height_m_;
}

double HeatMap::at(Position p) const {
  if (!inside(p)) return 0.0;
  const auto c = static_cast<std::size_t>(p.x / cell_m_);
  const auto r = static_cast<std::size_t>(p.y / cell_m_);
  return grid_[r * cols_ + c];
}

double HeatMap::max_cell() const {
  return grid_.empty() ? 0.0 : *std::max_element(grid_.begin(), grid_.end());
}

std::string HeatMap::to_csv() const {
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      os << (c ? "," : "") << grid_[r * cols_ + c];
    }
    os << '\n';
  }
  return os.str();
}

std::string HeatMap::to_ascii(int max_cols) const {
  static constexpr char kShades[] = " .:-=+*#%@";
  const std::size_t step =
      std::max<std::size_t>(1, cols_ / static_cast<std::size_t>(max_cols));
  const double peak = max_cell();
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_; r += step) {
    for (std::size_t c = 0; c < cols_; c += step) {
      // Aggregate the step x step block.
      double v = 0.0;
      for (std::size_t dr = 0; dr < step && r + dr < rows_; ++dr) {
        for (std::size_t dc = 0; dc < step && c + dc < cols_; ++dc) {
          v = std::max(v, grid_[(r + dr) * cols_ + (c + dc)]);
        }
      }
      const int shade =
          peak > 0 ? static_cast<int>(v / peak * 9.0 + 0.5) : 0;
      os << kShades[std::clamp(shade, 0, 9)];
    }
    os << '\n';
  }
  return os.str();
}

namespace {
/// Scores every free SSID in one pass over the records, adding each SSID's
/// `value(ap)` terms in record order.
template <class Value>
std::vector<ScoredSsid> score_free_ssids(const world::WigleDb& wigle,
                                         Value value) {
  std::vector<ScoredSsid> scored;
  std::unordered_map<std::string_view, std::size_t> slot;
  for (const auto& ap : wigle.records()) {
    if (!ap.open) continue;
    const auto [it, fresh] = slot.try_emplace(ap.ssid, scored.size());
    if (fresh) scored.push_back({ap.ssid, 0.0});
    scored[it->second].score += value(ap);
  }
  return scored;
}

std::vector<ScoredSsid> top_k(std::vector<ScoredSsid> scored, std::size_t k) {
  std::sort(scored.begin(), scored.end(),
            [](const ScoredSsid& a, const ScoredSsid& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.ssid < b.ssid;
            });
  if (scored.size() > k) scored.resize(k);
  return scored;
}
}  // namespace

std::vector<ScoredSsid> top_by_heat(const world::WigleDb& wigle,
                                    const HeatMap& heat, std::size_t k) {
  return top_k(score_free_ssids(wigle,
                                [&heat](const world::AccessPointInfo& ap) {
                                  return heat.at(ap.pos);
                                }),
               k);
}

std::vector<ScoredSsid> top_by_ap_count(const world::WigleDb& wigle,
                                        std::size_t k) {
  return top_k(score_free_ssids(
                   wigle, [](const world::AccessPointInfo&) { return 1.0; }),
               k);
}

std::vector<double> rank_weights(std::size_t n) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = static_cast<double>(n - i);
  }
  return w;
}

}  // namespace cityhunter::heatmap
