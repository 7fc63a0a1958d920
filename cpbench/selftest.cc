// Self-test of the benchmark's order statistics: the percentile helper and
// the rule that a percentile is reported only with ten samples beyond it.
// Prints one line per failed expectation and exits 1 if there was any.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

}  // namespace

int main() {
  using cpbench::Percentile;

  Expect(Percentile({}, 50) == 0, "empty sample gives 0");
  Expect(Percentile({7}, 90) == 7, "single sample is every percentile");
  Expect(Percentile({3, 1, 2}, 50) == 2, "median of an odd sample");
  Expect(Near(Percentile({4, 1, 3, 2}, 50), 2.5), "median interpolates");
  Expect(Percentile({1, 2, 3, 4, 5}, 0) == 1, "p0 is the minimum");
  Expect(Percentile({1, 2, 3, 4, 5}, 100) == 5, "p100 is the maximum");
  Expect(Near(Percentile({10, 20, 30, 40, 50}, 90), 46),
         "p90 of five interpolates between the top two");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Near(Percentile(hundred, 90), 90.1), "p90 of 1..100");
  int above = 0;
  for (double x : hundred) above += x > Percentile(hundred, 90) ? 1 : 0;
  Expect(above == 10, "ten distinct samples lie above p90 of 100");

  Expect(cpbench::SamplesBeyond(100, 90) == 10, "100 samples: 10 beyond p90");
  Expect(cpbench::SamplesBeyond(99, 90) == 9, "99 samples: 9 beyond p90");
  Expect(cpbench::SamplesBeyond(101, 90) == 10, "101 samples: 10 beyond p90");
  Expect(cpbench::SamplesBeyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  Expect(cpbench::SamplesBeyond(0, 90) == 0, "no samples: none beyond");
  Expect(cpbench::Reportable(100, 90), "p90 reportable from 100 samples");
  Expect(!cpbench::Reportable(99, 90), "p90 not reportable from 99 samples");
  Expect(cpbench::Reportable(20, 50), "p50 reportable from 20 samples");
  Expect(!cpbench::Reportable(999, 99), "p99 not reportable from 999 samples");

  const std::vector<double> three = {5, 1, 9};
  Expect(cpbench::Median(three) == 5, "median helper");
  Expect(cpbench::Mean({}) == 0 && cpbench::Mean({1, 2, 3}) == 2, "mean");
  Expect(cpbench::Ratio(1, 0) == 0 && cpbench::Ratio(1, 4) == 0.25, "ratio");

  if (failures == 0) std::printf("cpbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
