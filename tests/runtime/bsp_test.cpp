// BSP (barrier-per-task) execution mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace opass::runtime {
namespace {

struct BspFixture : ::testing::Test {
  BspFixture() : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(3) {
    params.disk_bandwidth = 64.0 * kMiB;
    params.nic_bandwidth = 64.0 * kMiB;
    params.disk_beta = 0.0;
    params.seek_latency = 0.0;
    params.remote_latency = 0.0;
    params.remote_stream_cap = 0.0;
  }

  std::vector<Task> make_tasks(std::uint32_t chunks) {
    const auto fid =
        nn.create_file(std::string("d").append(std::to_string(nn.file_count())),
                       chunks * kDefaultChunkSize, policy, rng);
    return single_input_tasks(nn, {fid});
  }

  ExecutionResult run(const std::vector<Task>& tasks, const Assignment& a, bool bsp) {
    sim::Cluster cluster(4, params);
    StaticAssignmentSource source(a);
    ExecutorConfig cfg;
    cfg.barrier_per_task = bsp;
    Rng exec_rng(7);
    return execute(cluster, nn, tasks, source, exec_rng, cfg);
  }

  dfs::NameNode nn;
  dfs::RoundRobinPlacement policy;
  Rng rng;
  sim::ClusterParams params;
};

TEST_F(BspFixture, AllTasksRunExactlyOnce) {
  const auto tasks = make_tasks(12);
  const auto result = run(tasks, rank_interval_assignment(12, 4), true);
  EXPECT_EQ(result.tasks_executed, 12u);
  std::vector<int> seen(12, 0);
  for (const auto& r : result.trace.records()) ++seen[r.chunk];
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST_F(BspFixture, WavesAreSynchronized) {
  // With per-task barriers, the k-th read of every process is issued at the
  // same virtual time (all reads are 1 s local/remote alike here only if
  // local... use a fully local assignment so waves are exact).
  const auto tasks = make_tasks(12);
  Assignment local(4);
  for (TaskId t = 0; t < 12; ++t) local[t % 4].push_back(t);
  const auto result = run(tasks, local, true);

  // Group issue times by wave: 4 reads per wave, identical timestamps.
  std::vector<Seconds> issues;
  for (const auto& r : result.trace.records()) issues.push_back(r.issue_time);
  std::sort(issues.begin(), issues.end());
  ASSERT_EQ(issues.size(), 12u);
  for (std::size_t wave = 0; wave < 3; ++wave) {
    for (std::size_t i = 1; i < 4; ++i)
      EXPECT_NEAR(issues[wave * 4 + i], issues[wave * 4], 1e-9) << "wave " << wave;
  }
}

TEST_F(BspFixture, StragglerStallsTheWholeWave) {
  // One process reads remotely (slow), the rest locally: under BSP everyone
  // waits; async mode lets the fast processes run ahead.
  const auto tasks = make_tasks(8);
  Assignment skew(4);
  // Process 0 gets chunks not on node 0 (remote); others local.
  std::vector<TaskId> remote, local_pool;
  for (TaskId t = 0; t < 8; ++t) {
    if (!nn.chunk(tasks[t].inputs[0]).has_replica_on(0)) remote.push_back(t);
    else local_pool.push_back(t);
  }
  ASSERT_GE(remote.size(), 2u);
  skew[0] = {remote[0], remote[1]};
  std::size_t i = 0;
  for (TaskId t = 0; t < 8; ++t) {
    if (t == remote[0] || t == remote[1]) continue;
    skew[1 + (i++ % 3)].push_back(t);
  }

  const auto bsp = run(tasks, skew, true);
  const auto async = run(tasks, skew, false);
  EXPECT_GE(bsp.makespan, async.makespan - 1e-9);
}

TEST_F(BspFixture, UnevenListsRetireCleanly) {
  // Process 0 has 4 tasks, others 1: the wave shrinks as processes drain.
  const auto tasks = make_tasks(7);
  Assignment a(4);
  a[0] = {0, 1, 2, 3};
  a[1] = {4};
  a[2] = {5};
  a[3] = {6};
  const auto result = run(tasks, a, true);
  EXPECT_EQ(result.tasks_executed, 7u);
  EXPECT_GT(result.makespan, 0.0);
}

TEST_F(BspFixture, EmptyProcessesDontBlockTheWave) {
  const auto tasks = make_tasks(4);
  Assignment a(4);
  a[2] = {0, 1, 2, 3};
  const auto result = run(tasks, a, true);
  EXPECT_EQ(result.tasks_executed, 4u);
}

TEST_F(BspFixture, ZeroInputTasksCompleteInsideTheWave) {
  // Compute-only tasks read nothing: with zero compute they finish
  // synchronously inside the wave release that pulled them, which may then
  // release the next wave from within itself. Processes 0 and 2 get only
  // read tasks and 1 and 3 only compute-only ones, so every wave mixes both
  // kinds. The async replay of the same lists must complete too.
  const auto reads = make_tasks(8);
  std::vector<Task> mixed;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    mixed.push_back(reads[i]);
    Task compute_only;
    compute_only.compute_time = (i % 3 == 0) ? 0.0 : 0.01;
    mixed.push_back(compute_only);
  }
  Assignment a(4);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i].id = static_cast<TaskId>(i);
    a[i % 4].push_back(static_cast<TaskId>(i));
  }
  EXPECT_EQ(run(mixed, a, false).tasks_executed, 16u);
  const auto result = run(mixed, a, true);
  EXPECT_EQ(result.tasks_executed, 16u);
  EXPECT_EQ(result.trace.size(), 8u);
  ASSERT_EQ(result.task_spans.size(), 16u);

  // Wave k = each process's k-th task: no wave starts before the previous
  // one has fully finished.
  std::vector<std::vector<TaskSpan>> by_process(4);
  for (const TaskSpan& span : result.task_spans) by_process[span.process].push_back(span);
  for (std::size_t wave = 1; wave < 4; ++wave) {
    Seconds prev_end = 0;
    for (const auto& spans : by_process) prev_end = std::max(prev_end, spans[wave - 1].end);
    for (const auto& spans : by_process) EXPECT_GE(spans[wave].start, prev_end) << wave;
  }
}

TEST_F(BspFixture, PrefetchAndBspAreExclusive) {
  const auto tasks = make_tasks(4);
  sim::Cluster cluster(4, params);
  StaticAssignmentSource source(rank_interval_assignment(4, 4));
  ExecutorConfig cfg;
  cfg.barrier_per_task = true;
  cfg.prefetch = true;
  Rng exec_rng(7);
  EXPECT_THROW(execute(cluster, nn, tasks, source, exec_rng, cfg), std::invalid_argument);
}

TEST_F(BspFixture, BspNeverFasterWithoutContention) {
  // Under contention BSP can legitimately *beat* async (synchronized waves
  // pace the hot disks), so the classic "barriers only slow you down"
  // monotonicity only holds when reads never contend: fully local
  // assignments on private disks.
  const auto tasks = make_tasks(12);
  Assignment local(4);
  for (TaskId t = 0; t < 12; ++t) local[t % 4].push_back(t);
  auto with_compute = tasks;
  Rng cr(5);
  for (auto& t : with_compute) t.compute_time = cr.uniform01();  // uneven waves
  const auto bsp = run(with_compute, local, true);
  const auto async = run(with_compute, local, false);
  EXPECT_GE(bsp.makespan, async.makespan - 1e-9);
  EXPECT_EQ(bsp.tasks_executed, async.tasks_executed);
}

}  // namespace
}  // namespace opass::runtime
