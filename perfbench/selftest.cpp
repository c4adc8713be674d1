// Self-test of the benchmark's own arithmetic (measure.h). Run by
// perfbench/run.py before every measurement; exits non-zero on a failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "measure.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentile_rule() {
  using perfbench::highest_reportable_percentile;
  using perfbench::samples_beyond;
  // A 48-run pass: p75 leaves 12 samples beyond it, p90 only 4.
  expect(samples_beyond(48, 0.75) == 12, "48 samples: 12 beyond p75");
  expect(samples_beyond(48, 0.9) == 4, "48 samples: 4 beyond p90");
  expect(highest_reportable_percentile(48) == 0.75, "48 samples report p75");
  expect(highest_reportable_percentile(100) == 0.9, "100 samples report p90");
  expect(highest_reportable_percentile(1000) == 0.99,
         "1000 samples report p99");
  expect(highest_reportable_percentile(12) == 0.5,
         "too few samples fall back to the median");

  std::vector<double> v;
  for (int i = 1; i <= 48; ++i) v.push_back(static_cast<double>(49 - i));
  expect(perfbench::percentile(v, 0.5) == 24.0, "nearest-rank p50 of 1..48");
  expect(perfbench::percentile(v, 0.75) == 36.0, "nearest-rank p75 of 1..48");
  expect(perfbench::percentile({}, 0.5) == 0.0, "empty percentile reads 0");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void test_run_medians() {
  // Three passes over the same two runs; pass 1 hit a slow stretch on run 0
  // only, pass 2 on run 1 only. Each run keeps its typical figure.
  const std::vector<std::vector<double>> passes = {
      {10.0, 20.0}, {30.0, 21.0}, {11.0, 50.0}};
  const auto m = perfbench::run_medians(passes);
  expect(m.size() == 2 && m[0] == 11.0 && m[1] == 21.0,
         "per-run median over passes");
  expect(perfbench::sum(m) == 32.0, "sum of the per-run medians");
  expect(perfbench::run_medians({}).empty(), "no passes, no runs");
}

void test_self_time() {
  using perfbench::Span;
  // root [0,10] with children [1,3] and [2,5] (overlapping, union 4) and a
  // grandchild that must not count against the root.
  std::vector<Span> spans = {
      {"root", -1, 0.0, 10.0},
      {"a", 0, 1.0, 3.0},
      {"b", 0, 2.0, 5.0},
      {"a.child", 1, 1.5, 2.5},
      {"late", 0, 9.0, 12.0},  // clipped to the root's end: covers 1
  };
  expect(near(perfbench::self_time(spans, 0), 10.0 - 4.0 - 1.0),
         "self = span minus the union of its children");
  expect(near(perfbench::self_time(spans, 1), 2.0 - 1.0),
         "child self time excludes its own child");
  expect(near(perfbench::self_time(spans, 3), 1.0), "leaf self = duration");
  expect(near(perfbench::self_time_of(spans, "a"), 1.0), "self time by name");
  // Self times of a tree add back up to the root's duration when children
  // nest inside their parents.
  std::vector<Span> tree = {{"r", -1, 0.0, 8.0},
                            {"x", 0, 0.5, 4.0},
                            {"y", 0, 4.0, 7.5},
                            {"z", 1, 1.0, 2.0}};
  double sum = 0.0;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    sum += perfbench::self_time(tree, i);
  }
  expect(near(sum, 8.0), "self times of a nested tree sum to the root");
}

void test_sim_rate() {
  // 48 runs x 600 simulated seconds in 2 host seconds: 14400 s/s.
  expect(near(perfbench::sim_rate(48 * 600.0, 2.0), 14400.0),
         "sim_rate is simulated seconds per host second");
  expect(perfbench::sim_rate(30.0, 0.0) == 0.0, "zero wall reads 0");
}

void test_ratios() {
  expect(near(perfbench::ratio(3.0, 4.0), 0.75), "ratio");
  expect(perfbench::ratio(1.0, 0.0) == 0.0, "ratio over nothing reads 0");
  // 1000 frames reached phones: 30 broadcasts from other phones plus 10
  // attacker frames, one addressed copy each.
  expect(near(perfbench::rx_addressed_ratio(30, 10, 1000), 0.04),
         "client.rx_addressed_ratio");
  expect(perfbench::rx_addressed_ratio(0, 0, 0) == 0.0,
         "no phone receptions read 0");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_run_medians();
  test_self_time();
  test_sim_rate();
  test_ratios();
  if (g_failures == 0) std::printf("selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
