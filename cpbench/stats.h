#ifndef DFIM_CPBENCH_STATS_H_
#define DFIM_CPBENCH_STATS_H_

// Order statistics shared by the driver and its self-test.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace cpbench {

/// The p-th percentile (p in [0, 100]) by linear interpolation between the
/// two closest ranks (numpy's default). 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// Samples ranked strictly above the pct-th percentile of `n` samples:
/// n - ceil(n * pct / 100), in integers so that 100 samples leave exactly
/// 10 beyond p90.
inline size_t SamplesBeyond(size_t n, int pct) {
  size_t at = (n * static_cast<size_t>(pct) + 99) / 100;
  return n > at ? n - at : 0;
}

/// A percentile is reported only when at least ten samples lie beyond it.
inline bool Reportable(size_t n, int pct) { return SamplesBeyond(n, pct) >= 10; }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// a / b, or 0 when b is 0 (ratios of counters that may be absent).
inline double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

}  // namespace cpbench

#endif  // DFIM_CPBENCH_STATS_H_
