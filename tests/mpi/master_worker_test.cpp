#include "mpi/master_worker.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "opass/opass.hpp"
#include "workload/dataset.hpp"

namespace opass::mpi {
namespace {

struct MwFixture : ::testing::Test {
  static constexpr std::uint32_t kNodes = 9;  // node 0 = master, 8 workers
  MwFixture()
      : nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize), rng(5) {
    tasks = workload::make_single_data_workload(nn, 40, policy, rng);
    // Workers are ranks 1..8 on nodes 1..8; their TaskSource process ids are
    // 0..7 mapped to those nodes.
    for (dfs::NodeId n = 1; n < kNodes; ++n) worker_placement.push_back(n);
  }

  dfs::NameNode nn;
  dfs::RandomPlacement policy;
  Rng rng;
  std::vector<runtime::Task> tasks;
  core::ProcessPlacement worker_placement;
};

TEST_F(MwFixture, ExecutesEveryTaskExactlyOnce) {
  sim::Cluster cluster(kNodes);
  Comm comm(cluster);
  Rng mw_rng(1);
  runtime::MasterWorkerSource source(static_cast<std::uint32_t>(tasks.size()), mw_rng);
  const auto result = run_master_worker(cluster, nn, tasks, source, comm, rng);
  EXPECT_EQ(result.exec.tasks_executed, tasks.size());
  std::vector<int> seen(tasks.size(), 0);
  for (const auto& r : result.exec.trace.records()) ++seen[r.chunk];
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST_F(MwFixture, AllWorkersFinishAndMakespanIsMax) {
  sim::Cluster cluster(kNodes);
  Comm comm(cluster);
  Rng mw_rng(1);
  runtime::MasterWorkerSource source(static_cast<std::uint32_t>(tasks.size()), mw_rng);
  const auto result = run_master_worker(cluster, nn, tasks, source, comm, rng);
  ASSERT_EQ(result.exec.process_finish_time.size(), 8u);
  Seconds max_finish = 0;
  for (Seconds t : result.exec.process_finish_time) {
    EXPECT_GT(t, 0.0);
    max_finish = std::max(max_finish, t);
  }
  EXPECT_DOUBLE_EQ(result.exec.makespan, max_finish);
}

TEST_F(MwFixture, SchedulerTrafficIsAccounted) {
  sim::Cluster cluster(kNodes);
  Comm comm(cluster);
  Rng mw_rng(1);
  runtime::MasterWorkerSource source(static_cast<std::uint32_t>(tasks.size()), mw_rng);
  const auto result = run_master_worker(cluster, nn, tasks, source, comm, rng);
  // Each task: one REQUEST + one GRANT; each worker: one final REQUEST+STOP.
  EXPECT_EQ(result.scheduler_messages, 2 * (tasks.size() + 8));
  EXPECT_EQ(result.scheduler_bytes, (64u + 128u) * (tasks.size() + 8));
}

TEST_F(MwFixture, SchedulerOverheadNegligibleVsDataMovement) {
  // The paper's Section V-C2 argument, quantified: scheduler bytes are a
  // vanishing fraction of data bytes.
  sim::Cluster cluster(kNodes);
  Comm comm(cluster);
  Rng mw_rng(1);
  runtime::MasterWorkerSource source(static_cast<std::uint32_t>(tasks.size()), mw_rng);
  const auto result = run_master_worker(cluster, nn, tasks, source, comm, rng);
  Bytes data = 0;
  for (const auto& r : result.exec.trace.records()) data += r.bytes;
  EXPECT_LT(static_cast<double>(result.scheduler_bytes), 1e-4 * static_cast<double>(data));
}

TEST_F(MwFixture, OpassGuidelineSourceImprovesLocality) {
  Rng assign_rng(3);
  const auto plan = core::plan({&nn, &tasks, &worker_placement, &assign_rng});

  sim::Cluster c1(kNodes);
  Comm comm1(c1);
  Rng mw_rng(1);
  runtime::MasterWorkerSource base_src(static_cast<std::uint32_t>(tasks.size()), mw_rng);
  Rng e1(2);
  const auto base = run_master_worker(c1, nn, tasks, base_src, comm1, e1);

  sim::Cluster c2(kNodes);
  Comm comm2(c2);
  core::OpassDynamicSource opass_src(plan.assignment, nn, tasks, worker_placement);
  Rng e2(2);
  const auto opass = run_master_worker(c2, nn, tasks, opass_src, comm2, e2);

  EXPECT_GT(opass.exec.trace.local_fraction(), base.exec.trace.local_fraction());
  EXPECT_LT(summarize(opass.exec.trace.io_times()).mean,
            summarize(base.exec.trace.io_times()).mean);
}

TEST_F(MwFixture, ComputeTimeDelaysRequests) {
  auto timed = tasks;
  for (auto& t : timed) t.compute_time = 1.0;
  sim::Cluster cluster(kNodes);
  Comm comm(cluster);
  Rng mw_rng(1);
  runtime::MasterWorkerSource source(static_cast<std::uint32_t>(timed.size()), mw_rng);
  const auto result = run_master_worker(cluster, nn, timed, source, comm, rng);
  // 40 tasks, 8 workers -> ~5 tasks each; each task costs >= 1 s compute.
  EXPECT_GE(result.exec.makespan, 5.0);
}

TEST_F(MwFixture, ReadsFailOverWhenTheirServerFails) {
  // A storage node fails mid-run: the reads it was serving, and any chosen
  // for it afterwards, move to live replicas, so every task's read lands
  // once and every worker finishes.
  std::uint32_t failures = 0;
  for (dfs::NodeId victim = 1; victim < kNodes; ++victim) {
    sim::Cluster cluster(kNodes);
    cluster.fail_node(victim, 1.5);
    Comm comm(cluster);
    Rng mw_rng(1);
    runtime::MasterWorkerSource source(static_cast<std::uint32_t>(tasks.size()), mw_rng);
    Rng exec_rng(5);
    const auto result = run_master_worker(cluster, nn, tasks, source, comm, exec_rng);
    EXPECT_EQ(result.exec.tasks_executed, tasks.size());
    std::vector<int> seen(tasks.size(), 0);
    for (const auto& r : result.exec.trace.records()) {
      ++seen[r.chunk];
      if (r.issue_time >= 1.5) {
        EXPECT_NE(r.serving_node, victim);
      }
    }
    for (int s : seen) EXPECT_EQ(s, 1) << "victim " << victim;
    for (Seconds t : result.exec.process_finish_time) EXPECT_GT(t, 0.0) << "victim " << victim;
    failures += result.exec.read_failures;
  }
  EXPECT_GT(failures, 0u);  // some victim was serving when it failed
}

TEST_F(MwFixture, NeedsAtLeastTwoRanks) {
  sim::Cluster cluster(1);
  Comm comm(cluster);
  Rng mw_rng(1);
  runtime::MasterWorkerSource source(4, mw_rng);
  EXPECT_THROW(run_master_worker(cluster, nn, tasks, source, comm, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace opass::mpi
