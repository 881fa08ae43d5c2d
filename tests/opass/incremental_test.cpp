#include "opass/incremental.hpp"

#include <gtest/gtest.h>

#include <set>

#include "opass/planner.hpp"
#include "support/edmonds_karp.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

struct IncrementalFixture : ::testing::Test {
  IncrementalFixture() : nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize), rng(11) {
    all_tasks = workload::make_single_data_workload(nn, 80, policy, rng);
    placement = one_process_per_node(nn);
  }

  std::vector<runtime::Task> batch(std::uint32_t from, std::uint32_t count) const {
    return {all_tasks.begin() + from, all_tasks.begin() + from + count};
  }

  dfs::NameNode nn;
  dfs::RandomPlacement policy;
  Rng rng;
  std::vector<runtime::Task> all_tasks;
  ProcessPlacement placement;
};

TEST_F(IncrementalFixture, SingleBatchMatchesFullPlanner) {
  IncrementalPlanner planner(nn, placement);
  Rng r1(3), r2(3);
  const auto inc = planner.match_batch(all_tasks, r1, {});
  const auto full = plan({&nn, &all_tasks, &placement, &r2});
  EXPECT_EQ(inc.locally_matched, full.locally_matched);
  EXPECT_EQ(inc.locally_matched + inc.randomly_filled, 80u);
}

TEST_F(IncrementalFixture, BatchPlanCarriesAssignmentStats) {
  IncrementalPlanner planner(nn, placement);
  Rng r1(3);
  const auto plan = planner.match_batch(all_tasks, r1, {});
  EXPECT_EQ(plan.stats.task_count, 80u);
  EXPECT_EQ(plan.stats.total_bytes, 80 * kDefaultChunkSize);
  // Matched tasks are local by construction; lucky fills may add more.
  EXPECT_GE(plan.stats.local_bytes,
            static_cast<Bytes>(plan.locally_matched) * kDefaultChunkSize);
  EXPECT_LE(plan.stats.local_bytes, plan.stats.total_bytes);
  // The quota rule keeps per-process counts within one of each other.
  EXPECT_LE(plan.stats.max_tasks_per_process - plan.stats.min_tasks_per_process, 1u);
}

TEST_F(IncrementalFixture, ExternalWorkspaceMatchesInternalAndOracle) {
  IncrementalPlanner internal(nn, placement), external(nn, placement);
  Rng r1(3), r2(3);
  graph::FlowWorkspace workspace;
  const auto a = internal.match_batch(all_tasks, r1, {});
  const auto b = external.match_batch(all_tasks, r2, &workspace);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.stats.local_bytes, b.stats.local_bytes);
  EXPECT_GT(workspace.network.edge_count(), 0u);  // the external arena was used
  // The batch's matched count is the max-flow value of its Fig. 5 network.
  workspace.network.reset_flow();
  EXPECT_EQ(static_cast<graph::Cap>(b.locally_matched),
            oracle::edmonds_karp(workspace.network, 0, 1));
}

TEST_F(IncrementalFixture, BatchesCoverEveryTaskOnce) {
  IncrementalPlanner planner(nn, placement);
  std::set<runtime::TaskId> seen;
  for (std::uint32_t start = 0; start < 80; start += 16) {
    const auto plan = planner.match_batch(batch(start, 16), rng, {});
    for (const auto& list : plan.assignment)
      for (auto t : list) EXPECT_TRUE(seen.insert(t).second) << "task assigned twice";
  }
  EXPECT_EQ(seen.size(), 80u);
}

TEST_F(IncrementalFixture, CumulativeLoadStaysBalanced) {
  IncrementalPlanner planner(nn, placement);
  // Deliberately uneven batch sizes.
  const std::uint32_t sizes[] = {5, 17, 3, 30, 25};
  std::uint32_t start = 0;
  for (auto s : sizes) {
    (void)planner.match_batch(batch(start, s), rng, {});  // reads load(), not the plan
    start += s;
    std::uint32_t hi = 0, lo = UINT32_MAX;
    for (auto l : planner.load()) {
      hi = std::max(hi, l);
      lo = std::min(lo, l);
    }
    EXPECT_LE(hi - lo, 1u) << "after batch of " << s;
  }
}

TEST_F(IncrementalFixture, LocalityHighPerBatch) {
  IncrementalPlanner planner(nn, placement);
  std::uint32_t local = 0;
  for (std::uint32_t start = 0; start < 80; start += 20)
    local += planner.match_batch(batch(start, 20), rng, {}).locally_matched;
  // Per-batch matching loses some global optimality but stays high.
  EXPECT_GT(local, 70u);
}

TEST_F(IncrementalFixture, EmptyBatchIsFine) {
  IncrementalPlanner planner(nn, placement);
  const auto plan = planner.match_batch({}, rng, {});
  EXPECT_EQ(plan.locally_matched, 0u);
  for (const auto& list : plan.assignment) EXPECT_TRUE(list.empty());
  for (std::uint32_t load : planner.load()) EXPECT_EQ(load, 0u);
}

TEST_F(IncrementalFixture, GlobalTaskIdsPreserved) {
  IncrementalPlanner planner(nn, placement);
  const auto plan = planner.match_batch(batch(40, 8), rng, {});
  for (const auto& list : plan.assignment)
    for (auto t : list) {
      EXPECT_GE(t, 40u);
      EXPECT_LT(t, 48u);
    }
}

TEST_F(IncrementalFixture, Validation) {
  EXPECT_THROW(IncrementalPlanner(nn, {}), std::invalid_argument);
  EXPECT_THROW(IncrementalPlanner(nn, {99}), std::invalid_argument);
  IncrementalPlanner planner(nn, placement);
  runtime::Task multi;
  multi.inputs = {0, 1};
  EXPECT_THROW(planner.match_batch({multi}, rng, {}), std::invalid_argument);
}

}  // namespace
}  // namespace opass::core
