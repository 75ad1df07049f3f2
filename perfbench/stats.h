// Latency summaries for the benchmark's reports.
//
// A timing is reported as its median and its *tail*: the highest
// percentile (capped at p99) that still has at least ten samples beyond
// it, so a short run never reports a p99 that rests on one sample. The
// percentile actually used and the sample count travel with the value.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples required beyond a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;      ///< value at tail_pct
  double tail_pct = 0.0;  ///< percentile reported as the tail (<= 99)
  double mean = 0.0;
  double max = 0.0;
};

/// Highest percentile (in 0.1 steps, at most `cap`) with at least
/// kTailSamples of `n` samples strictly beyond it; 50 when n is too small
/// for any tail, 0 when n == 0.
double tail_percentile(std::size_t n, double cap = 99.0);

/// Nearest-rank percentile of an ascending-sorted, non-empty vector.
double percentile_sorted(const std::vector<double>& sorted, double pct);

/// Median, tail, mean and max of `samples` (taken by value: sorted here).
Summary summarize(std::vector<double> samples, double cap = 99.0);

/// Total length covered by the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals);

}  // namespace perfbench
