#include "obs/metrics.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace cityhunter::obs {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kDistribution: return "distribution";
  }
  return "?";
}

const MetricPoint* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricPoint& p : points) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::string MetricsSnapshot::str() const {
  std::ostringstream os;
  for (const MetricPoint& p : points) {
    os << p.name << ' ' << to_string(p.kind) << " count=" << p.count
       << " value=" << p.value;
    if (p.kind != MetricKind::kCounter) {
      os << " min=" << p.min << " max=" << p.max;
    }
    os << '\n';
  }
  return os.str();
}

MetricsRegistry::Id MetricsRegistry::intern(std::string_view name,
                                            MetricKind kind) {
  for (Id i = 0; i < points_.size(); ++i) {
    if (points_[i].name == name) {
      if (points_[i].kind != kind) {
        throw std::invalid_argument("MetricsRegistry: '" + std::string(name) +
                                    "' already registered with another kind");
      }
      return i;
    }
  }
  Point p;
  p.name = std::string(name);
  p.kind = kind;
  points_.push_back(std::move(p));
  return points_.size() - 1;
}

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name) {
  return intern(name, MetricKind::kCounter);
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name) {
  return intern(name, MetricKind::kGauge);
}

MetricsRegistry::Id MetricsRegistry::distribution(std::string_view name,
                                                  double bucket_width) {
  const Id id = intern(name, MetricKind::kDistribution);
  if (!points_[id].hist) points_[id].hist.emplace(bucket_width);
  return id;
}

void MetricsRegistry::observe(Id id, double value) {
  points_[id].hist->add(value);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  out.points.reserve(points_.size());
  for (const Point& p : points_) {
    MetricPoint m;
    m.name = p.name;
    m.kind = p.kind;
    switch (p.kind) {
      case MetricKind::kCounter:
        m.count = p.total;
        m.value = static_cast<double>(p.total);
        break;
      case MetricKind::kGauge:
        m.count = p.sets;
        m.value = p.last;
        m.min = p.min;
        m.max = p.max;
        break;
      case MetricKind::kDistribution:
        m.count = p.hist->count();
        m.value = p.hist->mean();
        m.min = p.hist->min();
        m.max = p.hist->max();
        break;
    }
    out.points.push_back(std::move(m));
  }
  std::sort(out.points.begin(), out.points.end(),
            [](const MetricPoint& a, const MetricPoint& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace cityhunter::obs
