#include "opass/dynamic_scheduler.hpp"

#include <gtest/gtest.h>

#include <set>

#include "opass/planner.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

struct DynamicFixture : ::testing::Test {
  DynamicFixture() : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(1) {
    tasks = workload::make_single_data_workload(nn, 12, policy, rng);
    placement = one_process_per_node(nn);
  }
  dfs::NameNode nn;
  dfs::RandomPlacement policy;
  Rng rng;
  std::vector<runtime::Task> tasks;
  ProcessPlacement placement;
};

TEST_F(DynamicFixture, ServesOwnListFirstInOrder) {
  OpassDynamicSource src({{3, 1}, {2}, {0}, {}}, nn, tasks, placement);
  EXPECT_EQ(src.next_task(0, 0.0), std::optional<runtime::TaskId>(3));
  EXPECT_EQ(src.next_task(0, 0.0), std::optional<runtime::TaskId>(1));
  EXPECT_EQ(src.next_task(1, 0.0), std::optional<runtime::TaskId>(2));
  EXPECT_EQ(src.steal_count(), 0u);
}

TEST_F(DynamicFixture, StealsFromLongestList) {
  // p3's list empty; p0 holds the longest list.
  OpassDynamicSource src({{0, 1, 2, 3}, {4}, {5}, {}}, nn, tasks, placement);
  const auto t = src.next_task(3, 0.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(src.steal_count(), 1u);
  // The stolen task came from p0's list.
  std::set<runtime::TaskId> p0_list{0, 1, 2, 3};
  EXPECT_TRUE(p0_list.count(*t));
}

TEST_F(DynamicFixture, StealPrefersCoLocatedTask) {
  // Find a task with a replica on node 3 and one without; both in p0's list.
  runtime::TaskId local_t = UINT32_MAX, remote_t = UINT32_MAX;
  for (const auto& t : tasks) {
    if (nn.chunk(t.inputs[0]).has_replica_on(3) && local_t == UINT32_MAX) local_t = t.id;
    if (!nn.chunk(t.inputs[0]).has_replica_on(3) && remote_t == UINT32_MAX) remote_t = t.id;
  }
  ASSERT_NE(local_t, UINT32_MAX);
  ASSERT_NE(remote_t, UINT32_MAX);

  OpassDynamicSource src({{remote_t, local_t}, {}, {}, {}}, nn, tasks, placement);
  EXPECT_EQ(src.next_task(3, 0.0), std::optional<runtime::TaskId>(local_t));
  EXPECT_EQ(src.steal_count(), 1u);
}

TEST_F(DynamicFixture, DrainsEverythingExactlyOnce) {
  const auto guideline = plan({&nn, &tasks, &placement, &rng});
  OpassDynamicSource src(guideline.assignment, nn, tasks, placement);
  std::set<runtime::TaskId> seen;
  // Round-robin idle processes until drained.
  bool progress = true;
  while (progress) {
    progress = false;
    for (runtime::ProcessId p = 0; p < 4; ++p) {
      const auto t = src.next_task(p, 0.0);
      if (t) {
        EXPECT_TRUE(seen.insert(*t).second) << "task dispensed twice";
        progress = true;
      }
    }
  }
  EXPECT_EQ(seen.size(), tasks.size());
}

TEST_F(DynamicFixture, ReturnsNulloptWhenEmpty) {
  OpassDynamicSource src({{}, {}, {}, {}}, nn, tasks, placement);
  EXPECT_EQ(src.next_task(0, 0.0), std::nullopt);
}

TEST_F(DynamicFixture, FastProcessEndsUpStealingWork) {
  // One process drains its short list then must steal repeatedly.
  OpassDynamicSource src({{0, 1, 2, 3, 4, 5}, {}, {}, {}}, nn, tasks, placement);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(src.next_task(1, 0.0).has_value());
  EXPECT_EQ(src.steal_count(), 6u);
  EXPECT_EQ(src.next_task(0, 0.0), std::nullopt);
}

TEST_F(DynamicFixture, MismatchedGuidelineRejected) {
  EXPECT_THROW(OpassDynamicSource({{0}}, nn, tasks, placement), std::invalid_argument);
  OpassDynamicSource src({{}, {}, {}, {}}, nn, tasks, placement);
  EXPECT_THROW(src.next_task(9, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace opass::core
