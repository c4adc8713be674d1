// Metrics registry: named counters, gauges and Histogram-backed
// distributions, snapshotted per run into RunOutput.
//
// Registration (name → Id) happens once at wiring time and may allocate;
// the per-event operations add()/set() are noexcept array stores so they are
// safe inside the heap-free frame path. observe() touches the histogram's
// bucket map and is reserved for cold, per-window call sites.
//
// Determinism: every point is driven purely by sim events, so a snapshot is
// bit-identical across thread counts. Wallclock lives in the run's
// PhaseProfile, never here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/histogram.h"

namespace cityhunter::obs {

enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kDistribution = 2,
};

const char* to_string(MetricKind k);

/// One metric in a snapshot. Field meaning by kind:
///   kCounter       count = accumulated total, value = count as double
///   kGauge         count = times set, value = last set, min/max over sets
///   kDistribution  count = samples, value = mean, min/max over samples
struct MetricPoint {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;
  double value = 0.0;
  double min = 0.0;
  double max = 0.0;

  bool operator==(const MetricPoint&) const = default;
};

struct MetricsSnapshot {
  std::vector<MetricPoint> points;  // sorted by name

  const MetricPoint* find(std::string_view name) const;

  /// One "name kind=... count=... value=..." line per point.
  std::string str() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

class MetricsRegistry {
 public:
  using Id = std::size_t;

  /// Register a point and get its handle. Registering the same (name, kind)
  /// twice returns the existing Id, so components can wire independently.
  Id counter(std::string_view name);
  Id gauge(std::string_view name);
  Id distribution(std::string_view name, double bucket_width);

  /// Counter increment. Hot-path safe: plain array store, noexcept.
  void add(Id id, std::uint64_t delta = 1) noexcept {
    points_[id].total += delta;
  }

  /// Gauge store. Hot-path safe.
  void set(Id id, double value) noexcept {
    Point& p = points_[id];
    p.last = value;
    if (p.sets == 0 || value < p.min) p.min = value;
    if (p.sets == 0 || value > p.max) p.max = value;
    ++p.sets;
  }

  /// Distribution sample. May allocate a histogram bucket — cold sites only.
  void observe(Id id, double value);

  std::size_t size() const { return points_.size(); }

  MetricsSnapshot snapshot() const;

 private:
  struct Point {
    std::string name;
    MetricKind kind;
    std::uint64_t total = 0;  // kCounter
    double last = 0.0;        // kGauge
    double min = 0.0;
    double max = 0.0;
    std::uint64_t sets = 0;                     // kGauge
    std::optional<support::Histogram> hist;     // kDistribution
  };

  Id intern(std::string_view name, MetricKind kind);

  std::vector<Point> points_;
};

}  // namespace cityhunter::obs
