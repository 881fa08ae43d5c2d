#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/task_source.hpp"

namespace opass::runtime {
namespace {

struct ExecutorFixture : ::testing::Test {
  ExecutorFixture()
      : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(1) {
    params.disk_bandwidth = 64.0 * kMiB;  // 1 s per local chunk
    params.nic_bandwidth = 64.0 * kMiB;
    params.disk_beta = 0.0;
    params.seek_latency = 0.0;
    params.remote_latency = 0.0;
    params.remote_stream_cap = 0.0;
  }

  std::vector<Task> make_tasks(std::uint32_t chunks) {
    const auto fid = nn.create_file("d", chunks * kDefaultChunkSize, policy, rng);
    return single_input_tasks(nn, {fid});
  }

  dfs::NameNode nn;
  dfs::RoundRobinPlacement policy;  // deterministic layout
  Rng rng;
  sim::ClusterParams params;
};

TEST_F(ExecutorFixture, ExecutesEveryTaskExactlyOnce) {
  const auto tasks = make_tasks(8);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource source(rank_interval_assignment(8, 4));
  const auto result = execute(cluster, nn, tasks, source, rng);
  EXPECT_EQ(result.tasks_executed, 8u);
  EXPECT_EQ(result.trace.size(), 8u);  // one read per single-input task
  // Every chunk appears exactly once in the trace.
  std::vector<int> seen(8, 0);
  for (const auto& r : result.trace.records()) ++seen[r.chunk];
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST_F(ExecutorFixture, ReadBreakdownRecordingLastsOneRun) {
  const auto tasks = make_tasks(8);
  sim::Cluster cluster(4, params);
  ExecutorConfig config;
  config.record_read_breakdown = true;
  StaticAssignmentSource source(rank_interval_assignment(8, 4));
  const auto result = execute(cluster, nn, tasks, source, rng, config);
  EXPECT_EQ(result.read_breakdowns.size(), result.trace.size());
  EXPECT_FALSE(cluster.read_breakdown_recording());

  {
    StaticAssignmentSource job_source(rank_interval_assignment(8, 4));
    Execution job(cluster, nn, tasks, job_source, rng, config);
    EXPECT_TRUE(cluster.read_breakdown_recording());
    job.launch(0);
    job.run_until_done();
    const auto job_result = job.take_result();
    EXPECT_EQ(job_result.read_breakdowns.size(), job_result.trace.size());
  }
  EXPECT_FALSE(cluster.read_breakdown_recording());

  // Recording the caller turned on stays on.
  cluster.record_read_breakdown(true);
  StaticAssignmentSource plain_source(rank_interval_assignment(8, 4));
  (void)execute(cluster, nn, tasks, plain_source, rng);
  EXPECT_TRUE(cluster.read_breakdown_recording());

  // A run that throws restores the flag as well: a source that hands out a
  // task the table does not hold.
  cluster.record_read_breakdown(false);
  StaticAssignmentSource unknown_source(Assignment{{99}, {}, {}, {}});
  EXPECT_THROW((void)execute(cluster, nn, tasks, unknown_source, rng, config),
               std::invalid_argument);
  EXPECT_FALSE(cluster.read_breakdown_recording());

  // A placement the constructor rejects leaves the flag off too: every check
  // runs before the cluster is touched.
  const std::vector<dfs::NodeId> unknown_node{0, 9};
  ExecutorConfig misplaced = config;
  misplaced.placement = unknown_node;
  StaticAssignmentSource misplaced_source(rank_interval_assignment(8, 2));
  EXPECT_THROW((void)execute(cluster, nn, tasks, misplaced_source, rng, misplaced),
               std::invalid_argument);
  EXPECT_FALSE(cluster.read_breakdown_recording());
}

TEST_F(ExecutorFixture, ReadsAreSequentialPerProcess) {
  const auto tasks = make_tasks(8);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource source(rank_interval_assignment(8, 4));
  const auto result = execute(cluster, nn, tasks, source, rng);
  // Per process, a read is issued exactly when the previous one ends.
  std::vector<std::vector<const sim::ReadRecord*>> per_proc(4);
  for (const auto& r : result.trace.records()) per_proc[r.process].push_back(&r);
  for (auto& list : per_proc) {
    std::sort(list.begin(), list.end(), [](auto* a, auto* b) {
      return a->issue_time < b->issue_time;
    });
    for (std::size_t i = 1; i < list.size(); ++i)
      EXPECT_DOUBLE_EQ(list[i]->issue_time, list[i - 1]->end_time);
  }
}

TEST_F(ExecutorFixture, MakespanIsMaxFinishTime) {
  const auto tasks = make_tasks(8);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource source(rank_interval_assignment(8, 4));
  const auto result = execute(cluster, nn, tasks, source, rng);
  Seconds max_finish = 0;
  for (Seconds t : result.process_finish_time) max_finish = std::max(max_finish, t);
  EXPECT_DOUBLE_EQ(result.makespan, max_finish);
  EXPECT_GE(result.makespan, result.trace.makespan());
}

TEST_F(ExecutorFixture, ComputeTimeDelaysNextTask) {
  auto tasks = make_tasks(2);
  for (auto& t : tasks) t.compute_time = 3.0;
  sim::Cluster cluster(4, params);
  // Both tasks on process 0: read(1s) + compute(3s) + read + compute.
  StaticAssignmentSource source({{0, 1}, {}, {}, {}});
  const auto result = execute(cluster, nn, tasks, source, rng);
  EXPECT_NEAR(result.process_finish_time[0], 8.0, 0.2);
}

TEST_F(ExecutorFixture, MultiInputTasksReadAllInputs) {
  auto single = make_tasks(6);
  // Re-pack into 2 tasks of 3 inputs each.
  std::vector<Task> tasks(2);
  for (int i = 0; i < 2; ++i) {
    tasks[i].id = static_cast<TaskId>(i);
    for (int k = 0; k < 3; ++k)
      tasks[i].inputs.push_back(single[static_cast<std::size_t>(i * 3 + k)].inputs[0]);
  }
  sim::Cluster cluster(4, params);
  StaticAssignmentSource source({{0}, {1}, {}, {}});
  const auto result = execute(cluster, nn, tasks, source, rng);
  EXPECT_EQ(result.tasks_executed, 2u);
  EXPECT_EQ(result.trace.size(), 6u);
}

TEST_F(ExecutorFixture, LocalReadsAreMarkedLocal) {
  const auto tasks = make_tasks(8);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource source(rank_interval_assignment(8, 4));
  const auto result = execute(cluster, nn, tasks, source, rng);
  for (const auto& r : result.trace.records()) {
    EXPECT_EQ(r.local, r.serving_node == r.reader_node);
    // The server must actually hold a replica.
    EXPECT_TRUE(nn.chunk(r.chunk).has_replica_on(r.serving_node));
  }
}

TEST_F(ExecutorFixture, FewerProcessesThanNodes) {
  const auto tasks = make_tasks(4);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource source(rank_interval_assignment(4, 2));
  ExecutorConfig cfg;
  cfg.process_count = 2;
  const auto result = execute(cluster, nn, tasks, source, rng, cfg);
  EXPECT_EQ(result.process_finish_time.size(), 2u);
  for (const auto& r : result.trace.records()) EXPECT_LT(r.reader_node, 2u);
}

TEST_F(ExecutorFixture, MoreProcessesThanNodesWrapAround) {
  const auto tasks = make_tasks(8);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource source(rank_interval_assignment(8, 8));
  ExecutorConfig cfg;
  cfg.process_count = 8;
  const auto result = execute(cluster, nn, tasks, source, rng, cfg);
  for (const auto& r : result.trace.records())
    EXPECT_EQ(r.reader_node, r.process % 4);
}

TEST_F(ExecutorFixture, PlacementGivesTheProcessCount) {
  // 64 processes on nodes 1..64 of a 65-node cluster with process_count
  // left at 0: the placement's size is the count, not the node count.
  dfs::NameNode big(dfs::Topology::single_rack(65), 2, kDefaultChunkSize);
  const auto fid = big.create_file("d", 64 * kDefaultChunkSize, policy, rng);
  const auto tasks = single_input_tasks(big, {fid});
  std::vector<dfs::NodeId> placement;
  for (dfs::NodeId n = 1; n <= 64; ++n) placement.push_back(n);
  sim::Cluster cluster(65, params);
  StaticAssignmentSource source(rank_interval_assignment(64, 64));
  ExecutorConfig cfg;
  cfg.placement = placement;
  const auto result = execute(cluster, big, tasks, source, rng, cfg);
  EXPECT_EQ(result.process_finish_time.size(), 64u);
  EXPECT_EQ(result.tasks_executed, 64u);
  for (const auto& r : result.trace.records()) EXPECT_EQ(r.reader_node, r.process + 1);

  cfg.process_count = 65;  // disagrees with the placement
  try {
    Execution execution(cluster, big, tasks, source, rng, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ExecutorConfig.process_count"), std::string::npos)
        << e.what();
  }
}

TEST_F(ExecutorFixture, EmptyAssignmentFinishesImmediately) {
  const auto tasks = make_tasks(2);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource source({{}, {}, {}, {}});
  const auto result = execute(cluster, nn, tasks, source, rng);
  EXPECT_EQ(result.tasks_executed, 0u);
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

TEST_F(ExecutorFixture, UnknownTaskFromSourceThrows) {
  const auto tasks = make_tasks(2);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource source({{99}, {}, {}, {}});
  EXPECT_THROW(execute(cluster, nn, tasks, source, rng), std::invalid_argument);
}

}  // namespace
}  // namespace opass::runtime
