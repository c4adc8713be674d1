#include "obs/metrics.h"

namespace cityhunter::obs {

const MetricPoint* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricPoint& p : points) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

}  // namespace cityhunter::obs
