#include "runtime/static_partitioner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace opass::runtime {
namespace {

TEST(RankInterval, EvenDivision) {
  const auto a = rank_interval_assignment(8, 4);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0], (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(a[1], (std::vector<TaskId>{2, 3}));
  EXPECT_EQ(a[3], (std::vector<TaskId>{6, 7}));
}

TEST(RankInterval, UnevenDivisionIsStillAPartition) {
  for (std::uint32_t n : {1u, 7u, 13u, 100u}) {
    for (std::uint32_t m : {1u, 3u, 5u, 8u}) {
      const auto a = rank_interval_assignment(n, m);
      EXPECT_TRUE(is_partition(a, n)) << "n=" << n << " m=" << m;
      const auto [lo, hi] = std::minmax_element(
          a.begin(), a.end(), [](const auto& x, const auto& y) { return x.size() < y.size(); });
      EXPECT_LE(hi->size() - lo->size(), 1u) << "n=" << n << " m=" << m;
    }
  }
}

TEST(RankInterval, MoreProcessesThanTasks) {
  const auto a = rank_interval_assignment(2, 5);
  EXPECT_TRUE(is_partition(a, 2));
  std::size_t total = 0;
  for (const auto& list : a) total += list.size();
  EXPECT_EQ(total, 2u);
}

TEST(RankInterval, ZeroTasks) {
  const auto a = rank_interval_assignment(0, 3);
  for (const auto& list : a) EXPECT_TRUE(list.empty());
}

TEST(RankInterval, RejectsZeroProcesses) {
  EXPECT_THROW(rank_interval_assignment(4, 0), std::invalid_argument);
}

TEST(RankInterval, MatchesPaperFormula) {
  // Indices for process i are [i*n/m, (i+1)*n/m).
  const std::uint32_t n = 640, m = 64;
  const auto a = rank_interval_assignment(n, m);
  for (std::uint32_t i = 0; i < m; ++i) {
    ASSERT_EQ(a[i].size(), 10u);
    EXPECT_EQ(a[i].front(), i * n / m);
    EXPECT_EQ(a[i].back(), (i + 1) * n / m - 1);
  }
}

TEST(IsPartition, DetectsDuplicates) {
  Assignment a{{0, 1}, {1}};
  EXPECT_FALSE(is_partition(a, 2));
}

TEST(IsPartition, DetectsMissing) {
  Assignment a{{0}, {}};
  EXPECT_FALSE(is_partition(a, 2));
}

TEST(IsPartition, DetectsOutOfRange) {
  Assignment a{{0, 5}};
  EXPECT_FALSE(is_partition(a, 2));
}

}  // namespace
}  // namespace opass::runtime
