// Failure injection: node crashes, flow cancellation, executor retry.
#include <gtest/gtest.h>

#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "sim/cluster.hpp"
#include "workload/dataset.hpp"

namespace opass::sim {
namespace {

ClusterParams simple_params() {
  ClusterParams p;
  p.disk_bandwidth = 100.0;
  p.nic_bandwidth = 100.0;
  p.disk_beta = 0.0;
  p.seek_latency = 0.0;
  p.remote_latency = 0.0;
  p.remote_stream_cap = 0.0;
  return p;
}

TEST(FlowCancel, CancelledFlowNeverCompletes) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  bool completed = false;
  const FlowId f = sim.start_flow({r}, 1000, [&](Seconds) { completed = true; });
  sim.after(1.0, [&](Seconds) { sim.cancel_flow(f); });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(sim.active_flows(), 0u);
  EXPECT_EQ(sim.resource_load(r), 0u);
}

TEST(FlowCancel, CancellationReleasesBandwidth) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  Seconds done = -1;
  const FlowId victim = sim.start_flow({r}, 1000, nullptr);
  sim.start_flow({r}, 400, [&](Seconds t) { done = t; });
  // At t=2 both have moved 100 bytes (50 B/s each); cancelling the victim
  // lets the survivor finish its remaining 300 at 100 B/s.
  sim.after(2.0, [&](Seconds) { sim.cancel_flow(victim); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST(FlowCancel, DoubleCancelIsNoop) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  const FlowId f = sim.start_flow({r}, 100, nullptr);
  sim.cancel_flow(f);
  EXPECT_EQ(sim.active_flows(), 0u);
  sim.cancel_flow(f);
  sim.run();
  EXPECT_EQ(sim.active_flows(), 0u);
}

TEST(NodeFailure, InFlightReadFails) {
  Cluster c(3, simple_params());
  bool completed = false, failed = false;
  c.read(0, 1, 1000, [&](Seconds) { completed = true; },
         [&](Seconds) { failed = true; });
  c.fail_node(1, 2.0);
  c.run();
  EXPECT_FALSE(completed);
  EXPECT_TRUE(failed);
  EXPECT_TRUE(c.is_failed(1));
  EXPECT_EQ(c.inflight_per_node()[1], 0u);
}

TEST(NodeFailure, SeekPhaseReadAlsoFails) {
  auto p = simple_params();
  p.seek_latency = 5.0;  // failure lands inside the positioning phase
  Cluster c(3, p);
  bool completed = false, failed = false;
  c.read(0, 1, 10, [&](Seconds) { completed = true; }, [&](Seconds) { failed = true; });
  c.fail_node(1, 1.0);
  c.run();
  EXPECT_FALSE(completed);
  EXPECT_TRUE(failed);
}

TEST(NodeFailure, ReadToAlreadyFailedNodeFailsImmediately) {
  Cluster c(3, simple_params());
  c.fail_node(1, 0.0);
  bool failed = false;
  c.run();
  c.read(0, 1, 10, nullptr, [&](Seconds) { failed = true; });
  c.run();
  EXPECT_TRUE(failed);
}

TEST(NodeFailure, OtherServersUnaffected) {
  Cluster c(3, simple_params());
  Seconds done = -1;
  c.read(0, 2, 500, [&](Seconds t) { done = t; });
  c.fail_node(1, 1.0);
  c.run();
  EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST(NodeFailure, FailingTwiceIsIdempotent) {
  Cluster c(2, simple_params());
  c.fail_node(1, 1.0);
  c.fail_node(1, 2.0);
  c.run();
  EXPECT_TRUE(c.is_failed(1));
}

TEST(ExecutorRetry, TasksCompleteDespiteServerFailure) {
  // 8 nodes, r = 3: fail one node mid-run; every task must still finish via
  // replica retry, and nothing may be served by the dead node afterwards.
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(5);
  const auto tasks = workload::make_single_data_workload(nn, 64, policy, rng);

  Cluster cluster(8);
  const dfs::NodeId victim = 3;
  cluster.fail_node(victim, 2.0);
  runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(64, 8));
  const auto result = runtime::execute(cluster, nn, tasks, source, rng);

  EXPECT_EQ(result.tasks_executed, 64u);
  EXPECT_EQ(result.trace.size(), 64u);
  for (const auto& r : result.trace.records()) {
    if (r.end_time > 2.0) {
      EXPECT_NE(r.serving_node, victim);
    }
  }
  EXPECT_GT(result.read_failures, 0u);  // the crash aborted something
}

TEST(ExecutorRetry, SurvivesRMinusOneFailures) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(7);
  const auto tasks = workload::make_single_data_workload(nn, 48, policy, rng);

  Cluster cluster(8);
  cluster.fail_node(1, 1.0);
  cluster.fail_node(2, 3.0);  // two of three replicas may die
  runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(48, 8));
  const auto result = runtime::execute(cluster, nn, tasks, source, rng);
  EXPECT_EQ(result.tasks_executed, 48u);
  EXPECT_EQ(result.trace.size(), 48u);
}

TEST(ExecutorRetry, AllReplicasDeadThrows) {
  dfs::NameNode nn(dfs::Topology::single_rack(3), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(9);
  const auto tasks = workload::make_single_data_workload(nn, 3, policy, rng);
  Cluster cluster(3);
  cluster.fail_node(0, 0.0);
  cluster.fail_node(1, 0.0);
  cluster.fail_node(2, 0.0);
  cluster.run();  // let the failures land before issuing
  runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(3, 3));
  EXPECT_THROW(runtime::execute(cluster, nn, tasks, source, rng), std::invalid_argument);
}

TEST(NodeFailure, Validation) {
  Cluster c(2, simple_params());
  EXPECT_THROW(c.fail_node(9, 1.0), std::invalid_argument);
  EXPECT_THROW(c.is_failed(9), std::invalid_argument);
  EXPECT_THROW(c.fail_node(0, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace opass::sim
