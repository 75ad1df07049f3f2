#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {

double tail_percentile(std::size_t n, double cap) {
  if (n == 0) return 0.0;
  if (n < 2 * kTailSamples) return 50.0;
  // Nearest rank r = ceil(p/100 * n) leaves n - r samples above it; the
  // largest p with n - r >= kTailSamples, floored to 0.1.
  const double p = 100.0 * static_cast<double>(n - kTailSamples) /
                   static_cast<double>(n);
  return std::min(cap, std::floor(p * 10.0 + 1e-9) / 10.0);
}

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Summary summarize(std::vector<double> samples, double cap) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  s.tail_pct = tail_percentile(samples.size(), cap);
  s.tail = percentile_sorted(samples, s.tail_pct);
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.max = samples.back();
  return s;
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace perfbench
