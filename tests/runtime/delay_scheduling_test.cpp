// Delay scheduling (Zaharia et al.) as a dynamic locality baseline.
#include <gtest/gtest.h>

#include <set>

#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace opass::runtime {
namespace {

struct DelayFixture : ::testing::Test {
  DelayFixture() : nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize), rng(7) {
    tasks = workload::make_single_data_workload(nn, 80, policy, rng);
    for (dfs::NodeId n = 0; n < 8; ++n) placement.push_back(n);
  }
  dfs::NameNode nn;
  dfs::RandomPlacement policy;
  Rng rng;
  std::vector<Task> tasks;
  std::vector<dfs::NodeId> placement;
};

TEST_F(DelayFixture, PullGrantsLocalTasksImmediately) {
  Rng q(1);
  DelaySchedulingSource src(nn, tasks, placement, q, /*max_delay=*/5.0);
  // Find a process that has a local task in the queue; it must be granted
  // without waiting.
  const auto r = src.pull(0, 0.0);
  if (r.kind == Pull::Kind::kTask) {
    EXPECT_TRUE(nn.chunk(tasks[r.task].inputs[0]).has_replica_on(0));
    EXPECT_EQ(src.local_grants(), 1u);
  } else {
    EXPECT_EQ(r.kind, Pull::Kind::kWait);  // no local task existed for p0
  }
}

TEST_F(DelayFixture, WaitsThenSettlesForRemote) {
  // A process on a node with no co-located tasks must first wait, then get
  // remote work once the delay expires.
  dfs::NameNode empty_nn(dfs::Topology::single_rack(4), 1, kDefaultChunkSize);
  class PinnedPlacement : public dfs::PlacementPolicy {
   public:
    dfs::ReplicaList place(const dfs::Topology&, dfs::NodeId, std::uint32_t, Rng&) override {
      return {0};  // everything on node 0
    }
    std::string name() const override { return "pinned"; }
  } pinned;
  Rng prng(2);
  const auto pinned_tasks = workload::make_single_data_workload(empty_nn, 8, pinned, prng);

  Rng q(1);
  DelaySchedulingSource src(empty_nn, pinned_tasks, {1, 2}, q, /*max_delay=*/1.0);
  // t=0: no local work for process 0 -> wait.
  auto r = src.pull(0, 0.0);
  EXPECT_EQ(r.kind, Pull::Kind::kWait);
  EXPECT_DOUBLE_EQ(r.retry_after, DelaySchedulingSource::kRetryInterval);
  // Still inside the delay window.
  EXPECT_EQ(src.pull(0, 0.5).kind, Pull::Kind::kWait);
  // Delay expired: remote grant.
  r = src.pull(0, 1.0);
  EXPECT_EQ(r.kind, Pull::Kind::kTask);
  EXPECT_EQ(src.remote_grants(), 1u);
}

TEST_F(DelayFixture, ZeroDelayDegeneratesToImmediateGrants) {
  Rng q(1);
  DelaySchedulingSource src(nn, tasks, placement, q, /*max_delay=*/0.0);
  std::set<TaskId> seen;
  Seconds now = 0;
  bool active = true;
  std::vector<ProcessId> order;
  for (ProcessId p = 0; p < 8; ++p) order.push_back(p);
  while (active) {
    active = false;
    for (ProcessId p = 0; p < 8; ++p) {
      const auto r = src.pull(p, now);
      if (r.kind == Pull::Kind::kTask) {
        EXPECT_TRUE(seen.insert(r.task).second);
        active = true;
      }
      EXPECT_NE(r.kind, Pull::Kind::kWait);  // zero delay never waits
    }
    now += 1.0;
  }
  EXPECT_EQ(seen.size(), tasks.size());
}

TEST_F(DelayFixture, ExecutorIntegrationCompletesAllTasks) {
  Rng q(3);
  DelaySchedulingSource src(nn, tasks, placement, q, /*max_delay=*/0.5);
  sim::Cluster cluster(8);
  Rng exec_rng(5);
  const auto result = execute(cluster, nn, tasks, src, exec_rng);
  EXPECT_EQ(result.tasks_executed, 80u);
  EXPECT_EQ(result.trace.size(), 80u);
  std::vector<int> counts(80, 0);
  for (const auto& r : result.trace.records()) ++counts[r.chunk];
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST_F(DelayFixture, DelayImprovesLocalityOverFifo) {
  auto run = [&](Seconds delay) {
    Rng q(3);
    DelaySchedulingSource src(nn, tasks, placement, q, delay);
    sim::Cluster cluster(8);
    Rng exec_rng(5);
    return execute(cluster, nn, tasks, src, exec_rng).trace.local_fraction();
  };
  const double fifo_local = run(0.0);
  const double delayed_local = run(2.0);
  EXPECT_GT(delayed_local, fifo_local);
  EXPECT_GT(delayed_local, 0.6);  // most grants become local with slack
}

TEST_F(DelayFixture, Validation) {
  Rng q(1);
  EXPECT_THROW(DelaySchedulingSource(nn, tasks, placement, q, -1.0),
               std::invalid_argument);
  DelaySchedulingSource src(nn, tasks, placement, q, 1.0);
  EXPECT_THROW(src.pull(99, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace opass::runtime
