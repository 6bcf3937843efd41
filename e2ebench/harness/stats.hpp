// Quantiles from raw samples. Every reported quantile carries its sample
// count; the tail is the highest percentile up to p99 that still has at
// least ten samples beyond it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace e2e {

struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< which percentile `tail` is
  double mean = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

/// Nearest-rank percentile of sorted samples.
inline double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Highest whole percentile, at most 99, whose nearest rank leaves ten of
/// `n` samples above it; never below the median.
inline double tail_percentile(std::size_t n) {
  for (double pct = 99.0; pct > 50.0; pct -= 1.0) {
    const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) return pct;
  }
  return 50.0;
}

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  s.max = samples.back();
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.tail_pct = tail_percentile(s.n);
  s.tail = percentile_sorted(samples, s.tail_pct);
  return s;
}

inline double median(std::vector<double> values) { return summarize(std::move(values)).p50; }

}  // namespace e2e
