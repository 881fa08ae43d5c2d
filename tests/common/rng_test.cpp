#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace opass {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(0), std::invalid_argument);
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(13);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, ParetoRespectsScaleFloor) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(1.5, 2.0), 1.5);
}

TEST(Rng, ParetoMeanMatches) {
  // mean = xm * alpha / (alpha - 1) = 1.0 * 3 / 2 = 1.5
  Rng rng(19);
  double sum = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += rng.pareto(1.0, 3.0);
  EXPECT_NEAR(sum / n, 1.5, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(23);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  const auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  for (std::uint32_t k : {0u, 1u, 5u, 50u, 100u}) {
    const auto s = rng.sample_without_replacement(100, k);
    ASSERT_EQ(s.size(), k);
    std::set<std::uint32_t> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), k);
    for (auto v : s) EXPECT_LT(v, 100u);
  }
}

/// Exact draws of both sampler branches, pinned from an earlier commit: the
/// sparse branch (rejection of repeats) and the dense one (partial
/// Fisher-Yates). 4,096 sparse samples of 3 of 1,024 include rejected
/// repeats, and the stream position after each run is pinned too, so a
/// sampler that accepts or rejects a different draw fails here.
std::uint64_t sample_digest(Rng& rng, std::uint32_t n, std::uint32_t k, int samples) {
  std::uint64_t h = 14695981039346656037ULL;
  for (int i = 0; i < samples; ++i)
    for (std::uint32_t v : rng.sample_without_replacement(n, k))
      h = (h ^ v) * 1099511628211ULL;
  return h;
}

TEST(Rng, SampleWithoutReplacementExactDraws) {
  Rng sparse(17);
  const auto first = sparse.sample_without_replacement(1024, 3);
  EXPECT_EQ(std::vector<std::uint32_t>(first.begin(), first.end()),
            (std::vector<std::uint32_t>{714, 257, 441}));
  EXPECT_EQ(sample_digest(sparse, 1024, 3, 4096), 6749277257221874302ULL);
  EXPECT_EQ(sparse(), 13987235912019340029ULL);

  Rng dense(17);
  const auto picks = dense.sample_without_replacement(8, 3);
  EXPECT_EQ(std::vector<std::uint32_t>(picks.begin(), picks.end()),
            (std::vector<std::uint32_t>{2, 4, 3}));
  EXPECT_EQ(sample_digest(dense, 8, 3, 4096), 12316402460392234063ULL);
  EXPECT_EQ(dense(), 11528030013756273244ULL);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(29);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementIsUniformish) {
  // Each element of [0,10) should appear in a 5-of-10 sample about half the
  // time.
  Rng rng(31);
  std::vector<int> hits(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t)
    for (auto v : rng.sample_without_replacement(10, 5)) ++hits[v];
  for (int h : hits) EXPECT_NEAR(h / double(trials), 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(41);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace opass
