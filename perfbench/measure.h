// The benchmark's own arithmetic: percentiles, medians, span self time and
// the derived rates and ratios it reports. Header-only so the driver
// (bench.cpp) and its self-test (selftest.cpp) share one definition.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q·n samples at
/// or below it. q in (0, 1]; an empty input reads 0.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

inline double sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double s : samples) total += s;
  return total;
}

/// Each run's median over repeated passes: passes[p][i] is run i's figure in
/// pass p, and entry i of the result is the median of those. Every pass must
/// hold the same runs in the same order.
inline std::vector<double> run_medians(
    const std::vector<std::vector<double>>& passes) {
  if (passes.empty()) return {};
  std::vector<double> out;
  out.reserve(passes.front().size());
  std::vector<double> column;
  for (std::size_t i = 0; i < passes.front().size(); ++i) {
    column.clear();
    for (const auto& pass : passes) column.push_back(pass[i]);
    out.push_back(median(column));
  }
  return out;
}

/// Samples strictly above the nearest-rank q-percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// The highest of the usual reporting percentiles that still leaves at least
/// `min_beyond` samples above it; 0.5 when even the median does not.
inline double highest_reportable_percentile(std::size_t n,
                                            std::size_t min_beyond = 10) {
  const double candidates[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (const double q : candidates) {
    if (samples_beyond(n, q) >= min_beyond) return q;
  }
  return 0.5;
}

/// Simulated seconds advanced per host second.
inline double sim_rate(double simulated_s, double wall_s) {
  return wall_s > 0.0 ? simulated_s / wall_s : 0.0;
}

/// num / den, 0 when there is nothing to divide by.
inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// One traced interval. Times are seconds on the benchmark's steady clock;
/// parent is the index of the enclosing span, -1 for a root.
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;

  double duration() const { return end_s - start_s; }
};

/// Self time of spans[index]: its duration minus the part of its interval
/// that the union of its direct children covers.
inline double self_time(const std::vector<Span>& spans, std::size_t index) {
  const Span& s = spans[index];
  std::vector<std::pair<double, double>> covered;
  for (const Span& c : spans) {
    if (c.parent != static_cast<int>(index)) continue;
    const double a = std::max(c.start_s, s.start_s);
    const double b = std::min(c.end_s, s.end_s);
    if (b > a) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  double union_s = 0.0;
  double cur_a = 0.0;
  double cur_b = -1.0;
  bool open = false;
  for (const auto& [a, b] : covered) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) union_s += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) union_s += cur_b - cur_a;
  return s.duration() - union_s;
}

/// Sum of self times over every span called `name`.
inline double self_time_of(const std::vector<Span>& spans,
                           const std::string& name) {
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) total += self_time(spans, i);
  }
  return total;
}

/// Share of the frames phones received that a receive-address filter would
/// still pass up: broadcasts heard from other phones plus one addressed copy
/// per attacker transmission, over every frame delivered to a phone.
inline double rx_addressed_ratio(std::uint64_t phone_to_phone,
                                 std::uint64_t attacker_transmissions,
                                 std::uint64_t phone_rx) {
  return ratio(static_cast<double>(phone_to_phone + attacker_transmissions),
               static_cast<double>(phone_rx));
}

}  // namespace perfbench
