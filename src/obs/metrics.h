// Metrics snapshot: the named counters, gauges and distributions an observed
// run publishes in RunOutput::metrics.
//
// VenueRun::run composes the snapshot once, at the end of the run, from the
// counters each layer keeps anyway (the event queue's Stats, the medium's
// traffic, fanout and drop counters, the attacker's scan windows and fill
// extrema, the selector's buffer sizes and the trace ring's overflow).
//
// Determinism: every point is driven purely by sim events, so a snapshot is
// bit-identical across thread counts. Wallclock lives in the run's
// PhaseProfile, never here.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cityhunter::obs {

enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kDistribution = 2,
};

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

  bool operator==(const MetricsSnapshot&) const = default;
};

}  // namespace cityhunter::obs
