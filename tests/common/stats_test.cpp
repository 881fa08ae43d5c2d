#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace opass {
namespace {

TEST(Summary, EmptySampleIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.max_over_min(), 0.0);
}

TEST(Summary, SingleValue) {
  const Summary s = summarize({4.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 4.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.mean, 4.0);
  EXPECT_EQ(s.median, 4.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Summary, KnownValues) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic textbook sample
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.sum, 40.0);
}

TEST(Summary, MaxOverMin) {
  const Summary s = summarize({1.0, 21.0});
  EXPECT_DOUBLE_EQ(s.max_over_min(), 21.0);
}

TEST(Summary, MaxOverMinZeroMin) {
  const Summary s = summarize({0.0, 5.0});
  EXPECT_EQ(s.max_over_min(), 0.0);
}

TEST(Summary, MedianEvenCount) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(QuantileSorted, Endpoints) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 3.0);
}

TEST(QuantileSorted, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.25), 2.5);
}

TEST(QuantileSorted, RejectsOutOfRangeQ) {
  const std::vector<double> v{1.0};
  EXPECT_THROW(quantile_sorted(v, 1.5), std::invalid_argument);
  EXPECT_THROW(quantile_sorted(v, -0.1), std::invalid_argument);
}

TEST(QuantileSorted, EmptyReturnsZero) {
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);
}

TEST(JainFairness, PerfectBalance) {
  EXPECT_DOUBLE_EQ(jain_fairness({5.0, 5.0, 5.0, 5.0}), 1.0);
}

TEST(JainFairness, WorstCaseOneHot) {
  // One node serves everything among n: index = 1/n.
  EXPECT_NEAR(jain_fairness({10.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(JainFairness, EmptyIsZero) { EXPECT_EQ(jain_fairness({}), 0.0); }

TEST(JainFairness, AllZeroIsBalanced) { EXPECT_EQ(jain_fairness({0.0, 0.0}), 1.0); }

TEST(Summary, OrderStatisticsMatchAFullSort) {
  Rng rng(11);
  for (std::size_t n : {1, 2, 3, 4, 7, 20, 101, 1000}) {
    for (bool duplicates : {false, true}) {
      std::vector<double> v(n);
      for (double& x : v)
        x = duplicates ? static_cast<double>(rng.uniform(5)) : rng.exponential(2.0);
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      const Summary s = summarize(v);
      EXPECT_EQ(s.min, sorted.front()) << n;
      EXPECT_EQ(s.max, sorted.back()) << n;
      EXPECT_EQ(s.median, quantile_sorted(sorted, 0.5)) << n;
      EXPECT_EQ(s.p95, quantile_sorted(sorted, 0.95)) << n;
      EXPECT_EQ(s.p99, quantile_sorted(sorted, 0.99)) << n;
    }
  }
}

}  // namespace
}  // namespace opass
