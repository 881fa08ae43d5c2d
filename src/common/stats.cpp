#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace opass {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  OPASS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  if (samples.empty()) return s;
  s.count = samples.size();

  double sum = 0;
  for (double v : samples) sum += v;
  s.sum = sum;
  s.mean = sum / static_cast<double>(s.count);

  double var = 0;
  for (double v : samples) {
    const double d = v - s.mean;
    var += d * d;
  }
  s.stddev = std::sqrt(var / static_cast<double>(s.count));

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.median = quantile_sorted(sorted, 0.5);
  s.p95 = quantile_sorted(sorted, 0.95);
  s.p99 = quantile_sorted(sorted, 0.99);
  return s;
}

double jain_fairness(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0, sumsq = 0;
  for (double v : samples) {
    sum += v;
    sumsq += v * v;
  }
  if (sumsq == 0.0) return 1.0;  // all-zero: trivially balanced
  return (sum * sum) / (static_cast<double>(samples.size()) * sumsq);
}

}  // namespace opass
