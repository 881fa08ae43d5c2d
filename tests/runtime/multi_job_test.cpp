// Concurrent multi-application execution: several Executions on one cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace opass::runtime {
namespace {

struct MultiJobFixture : ::testing::Test {
  MultiJobFixture()
      : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(3) {
    params.disk_bandwidth = 64.0 * kMiB;  // 1 s per uncontended local chunk
    params.nic_bandwidth = 64.0 * kMiB;
    params.disk_beta = 0.0;
    params.seek_latency = 0.0;
    params.remote_latency = 0.0;
    params.remote_stream_cap = 0.0;
  }

  std::vector<Task> make_tasks(const std::string& name, std::uint32_t chunks) {
    const auto fid = nn.create_file(name, chunks * kDefaultChunkSize, policy, rng);
    auto tasks = single_input_tasks(nn, {fid});
    return tasks;
  }

  dfs::NameNode nn;
  dfs::RoundRobinPlacement policy;
  Rng rng;
  sim::ClusterParams params;
};

TEST_F(MultiJobFixture, TwoJobsBothComplete) {
  const auto ta = make_tasks("a", 8);
  const auto tb = make_tasks("b", 4);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource sa(rank_interval_assignment(8, 4));
  StaticAssignmentSource sb(rank_interval_assignment(4, 4));
  Execution a(cluster, nn, ta, sa, rng);
  Execution b(cluster, nn, tb, sb, rng);
  a.launch(0);
  b.launch(0);
  cluster.run();
  ASSERT_TRUE(a.done() && b.done());
  const auto ra = a.take_result();
  const auto rb = b.take_result();
  EXPECT_EQ(ra.tasks_executed, 8u);
  EXPECT_EQ(rb.tasks_executed, 4u);
  EXPECT_EQ(ra.trace.size(), 8u);
  EXPECT_EQ(rb.trace.size(), 4u);
}

TEST_F(MultiJobFixture, ConcurrentJobsContendForDisks) {
  // One job alone vs the same job sharing the cluster with a second one:
  // contention must slow it down.
  const auto ta = make_tasks("a", 8);
  const auto tb = make_tasks("b", 8);

  Seconds alone;
  {
    sim::Cluster cluster(4, params);
    StaticAssignmentSource sa(rank_interval_assignment(8, 4));
    alone = execute(cluster, nn, ta, sa, rng).makespan;
  }
  {
    sim::Cluster cluster(4, params);
    StaticAssignmentSource sa(rank_interval_assignment(8, 4));
    StaticAssignmentSource sb(rank_interval_assignment(8, 4));
    Execution a(cluster, nn, ta, sa, rng);
    Execution b(cluster, nn, tb, sb, rng);
    a.launch(0);
    b.launch(0);
    cluster.run();
    EXPECT_GT(a.take_result().makespan, alone * 1.2);
  }
}

TEST_F(MultiJobFixture, StartTimeOffsetsJobLaunch) {
  const auto ta = make_tasks("a", 4);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource sa(rank_interval_assignment(4, 4));
  Execution a(cluster, nn, ta, sa, rng);
  a.launch(5.0);
  cluster.run();
  const auto result = a.take_result();
  for (const auto& r : result.trace.records()) EXPECT_GE(r.issue_time, 5.0);
  EXPECT_GE(result.makespan, 6.0);  // 5 s offset + ~1 s read
}

TEST_F(MultiJobFixture, StaggeredJobsOverlapCorrectly) {
  const auto ta = make_tasks("a", 8);
  const auto tb = make_tasks("b", 8);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource sa(rank_interval_assignment(8, 4));
  StaticAssignmentSource sb(rank_interval_assignment(8, 4));
  Execution a(cluster, nn, ta, sa, rng);
  Execution b(cluster, nn, tb, sb, rng);
  a.launch(0);
  b.launch(1.0);
  cluster.run();
  const auto ra = a.take_result();
  const auto rb = b.take_result();
  // Job B starts strictly later and ends no earlier than A started.
  Seconds b_first = 1e30;
  for (const auto& r : rb.trace.records()) b_first = std::min(b_first, r.issue_time);
  EXPECT_GE(b_first, 1.0);
  EXPECT_EQ(ra.tasks_executed + rb.tasks_executed, 16u);
}

// run_until_done() stops at the job's own last task while a longer job on
// the same cluster is still reading; resuming fires exactly what one
// uninterrupted run fires.
TEST_F(MultiJobFixture, RunUntilDoneStopsAtTheJobsLastTask) {
  const auto ta = make_tasks("a", 4);
  const auto tb = make_tasks("b", 12);
  const auto run = [&](bool stop_at_a) {
    sim::Cluster cluster(4, params);
    StaticAssignmentSource sa(rank_interval_assignment(4, 4));
    StaticAssignmentSource sb(rank_interval_assignment(12, 4));
    Rng exec_rng(9);
    Execution a(cluster, nn, ta, sa, exec_rng);
    Execution b(cluster, nn, tb, sb, exec_rng);
    a.launch(0);
    b.launch(0);
    if (stop_at_a) {
      const Seconds stopped = a.run_until_done();
      EXPECT_TRUE(a.done());
      EXPECT_FALSE(b.done());
      EXPECT_GT(cluster.simulator().active_flows(), 0u);
      EXPECT_EQ(stopped, cluster.simulator().now());
    }
    cluster.run();
    return std::pair(a.take_result(), b.take_result());
  };
  const auto [a_stopped, b_resumed] = run(true);
  const auto [a_plain, b_plain] = run(false);
  EXPECT_EQ(a_stopped.makespan, a_plain.makespan);
  EXPECT_EQ(b_resumed.makespan, b_plain.makespan);
  EXPECT_EQ(b_resumed.trace.io_times(), b_plain.trace.io_times());
}

// The configuration is checked before the cluster is touched: a rejected
// job leaves nothing in flight and the breakdown recording off.
TEST_F(MultiJobFixture, InvalidJobTouchesNothing) {
  const auto ta = make_tasks("a", 8);
  ExecutorConfig exclusive;
  exclusive.prefetch = true;
  exclusive.barrier_per_task = true;
  exclusive.record_read_breakdown = true;
  sim::Cluster cluster(4, params);
  StaticAssignmentSource sa(rank_interval_assignment(8, 4));
  StaticAssignmentSource sb(rank_interval_assignment(8, 4));
  Execution a(cluster, nn, ta, sa, rng);
  EXPECT_THROW(Execution(cluster, nn, ta, sb, rng, exclusive), std::invalid_argument);
  for (std::uint32_t n : cluster.inflight_per_node()) EXPECT_EQ(n, 0u);
  EXPECT_EQ(cluster.simulator().active_flows(), 0u);
  EXPECT_FALSE(cluster.read_breakdown_recording());
}

}  // namespace
}  // namespace opass::runtime
