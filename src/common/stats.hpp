// Summary statistics over samples (I/O op times, per-node served bytes, ...).
//
// The paper reports min / max / average series (Figs. 7–11) and mean ± stddev
// (Fig. 12); Summary computes all of those plus order statistics in one pass
// over a sample vector.
#pragma once

#include <cstddef>
#include <vector>

namespace opass {

/// One-shot descriptive statistics of a sample.
struct Summary {
  std::size_t count = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double stddev = 0;  ///< population standard deviation
  double median = 0;
  double p95 = 0;
  double p99 = 0;
  double sum = 0;

  /// max/min ratio; the paper quotes "max I/O time is 21X the minimum".
  /// Returns 0 when min == 0.
  double max_over_min() const { return min > 0 ? max / min : 0.0; }
};

/// Compute a Summary. An empty sample yields a zeroed Summary.
Summary summarize(const std::vector<double>& samples);

/// Linear-interpolated quantile of a *sorted* sample, q in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Jain's fairness index: (sum x)^2 / (n * sum x^2) in (0, 1]; 1 = perfectly
/// balanced. Used to quantify the balance of per-node served bytes.
double jain_fairness(const std::vector<double>& samples);

}  // namespace opass
