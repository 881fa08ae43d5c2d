// Concurrent multi-application execution on one cluster (execute_jobs).
#include <gtest/gtest.h>

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
  std::vector<JobSpec> jobs(2);
  jobs[0].tasks = &ta;
  jobs[0].source = &sa;
  jobs[1].tasks = &tb;
  jobs[1].source = &sb;
  const auto results = execute_jobs(cluster, nn, jobs, rng);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].tasks_executed, 8u);
  EXPECT_EQ(results[1].tasks_executed, 4u);
  EXPECT_EQ(results[0].trace.size(), 8u);
  EXPECT_EQ(results[1].trace.size(), 4u);
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
    std::vector<JobSpec> jobs(2);
    jobs[0].tasks = &ta;
    jobs[0].source = &sa;
    jobs[1].tasks = &tb;
    jobs[1].source = &sb;
    const auto results = execute_jobs(cluster, nn, jobs, rng);
    EXPECT_GT(results[0].makespan, alone * 1.2);
  }
}

TEST_F(MultiJobFixture, StartTimeOffsetsJobLaunch) {
  const auto ta = make_tasks("a", 4);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource sa(rank_interval_assignment(4, 4));
  std::vector<JobSpec> jobs(1);
  jobs[0].tasks = &ta;
  jobs[0].source = &sa;
  jobs[0].start_time = 5.0;
  const auto results = execute_jobs(cluster, nn, jobs, rng);
  for (const auto& r : results[0].trace.records()) EXPECT_GE(r.issue_time, 5.0);
  EXPECT_GE(results[0].makespan, 6.0);  // 5 s offset + ~1 s read
}

TEST_F(MultiJobFixture, StaggeredJobsOverlapCorrectly) {
  const auto ta = make_tasks("a", 8);
  const auto tb = make_tasks("b", 8);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource sa(rank_interval_assignment(8, 4));
  StaticAssignmentSource sb(rank_interval_assignment(8, 4));
  std::vector<JobSpec> jobs(2);
  jobs[0].tasks = &ta;
  jobs[0].source = &sa;
  jobs[1].tasks = &tb;
  jobs[1].source = &sb;
  jobs[1].start_time = 1.0;
  const auto results = execute_jobs(cluster, nn, jobs, rng);
  // Job B starts strictly later and ends no earlier than A started.
  Seconds b_first = 1e30;
  for (const auto& r : results[1].trace.records()) b_first = std::min(b_first, r.issue_time);
  EXPECT_GE(b_first, 1.0);
  EXPECT_EQ(results[0].tasks_executed + results[1].tasks_executed, 16u);
}

TEST_F(MultiJobFixture, Validation) {
  sim::Cluster cluster(4, params);
  EXPECT_THROW(execute_jobs(cluster, nn, {}, rng), std::invalid_argument);
  std::vector<JobSpec> jobs(1);
  EXPECT_THROW(execute_jobs(cluster, nn, jobs, rng), std::invalid_argument);
}

// Every job is checked before any launches: a bad second job must not leave
// the first one's reads in flight, holding callbacks into a freed driver.
TEST_F(MultiJobFixture, InvalidLaterJobLaunchesNothing) {
  const auto ta = make_tasks("a", 8);
  ExecutorConfig exclusive;
  exclusive.prefetch = true;
  exclusive.barrier_per_task = true;
  for (const bool null_source : {true, false}) {
    sim::Cluster cluster(4, params);
    StaticAssignmentSource sa(rank_interval_assignment(8, 4));
    StaticAssignmentSource sb(rank_interval_assignment(8, 4));
    std::vector<JobSpec> jobs(2);
    jobs[0].tasks = &ta;
    jobs[0].source = &sa;
    jobs[1].tasks = &ta;
    jobs[1].source = null_source ? nullptr : &sb;
    if (!null_source) jobs[1].config = exclusive;
    EXPECT_THROW(execute_jobs(cluster, nn, jobs, rng), std::invalid_argument);
    for (std::uint32_t n : cluster.inflight_per_node()) EXPECT_EQ(n, 0u);
    EXPECT_EQ(cluster.simulator().active_flows(), 0u);
  }
}

}  // namespace
}  // namespace opass::runtime
