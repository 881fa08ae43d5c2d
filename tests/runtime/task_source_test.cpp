#include "runtime/task_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace opass::runtime {
namespace {

TEST(StaticAssignmentSource, ReplaysInOrder) {
  StaticAssignmentSource src(Assignment{{2, 0}, {1}});
  EXPECT_EQ(src.next_task(0, 0.0), std::optional<TaskId>(2));
  EXPECT_EQ(src.next_task(1, 0.0), std::optional<TaskId>(1));
  EXPECT_EQ(src.next_task(0, 0.0), std::optional<TaskId>(0));
  EXPECT_EQ(src.next_task(0, 0.0), std::nullopt);
  EXPECT_EQ(src.next_task(1, 0.0), std::nullopt);
}

TEST(StaticAssignmentSource, OutOfRangeProcessThrows) {
  StaticAssignmentSource src(Assignment{{0}});
  EXPECT_THROW(src.next_task(1, 0.0), std::invalid_argument);
}

TEST(MasterWorkerSource, HandsOutEveryTaskOnce) {
  Rng rng(3);
  MasterWorkerSource src(10, rng);
  std::vector<TaskId> seen;
  for (int i = 0; i < 10; ++i) {
    const auto t = src.next_task(static_cast<ProcessId>(i % 3), 0.0);
    ASSERT_TRUE(t.has_value());
    seen.push_back(*t);
  }
  EXPECT_EQ(src.next_task(0, 0.0), std::nullopt);
  std::sort(seen.begin(), seen.end());
  for (TaskId t = 0; t < 10; ++t) EXPECT_EQ(seen[t], t);
}

TEST(MasterWorkerSource, ShuffleRandomizesOrder) {
  Rng rng(5);
  MasterWorkerSource src(50, rng);
  std::vector<TaskId> order;
  for (int i = 0; i < 50; ++i) order.push_back(*src.next_task(0, 0.0));
  std::vector<TaskId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NE(order, sorted);  // astronomically unlikely to be sorted
}

TEST(MasterWorkerSource, EmptyQueue) {
  Rng rng(7);
  MasterWorkerSource src(0, rng);
  EXPECT_EQ(src.next_task(0, 0.0), std::nullopt);
}

}  // namespace
}  // namespace opass::runtime
