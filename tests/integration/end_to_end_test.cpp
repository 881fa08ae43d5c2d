// End-to-end integration: NameNode + workload + assigner + executor +
// simulator, asserting the paper's qualitative results hold on small
// instances (fast enough for CI).
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "opass/opass.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"
#include "workload/multi_input.hpp"

namespace opass {
namespace {

struct EndToEnd : ::testing::Test {
  static constexpr std::uint32_t kNodes = 16;
  EndToEnd()
      : nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize),
        placement_rng(11),
        exec_rng(13) {}

  runtime::ExecutionResult run(const std::vector<runtime::Task>& tasks,
                               const runtime::Assignment& assignment) {
    sim::Cluster cluster(kNodes);
    runtime::StaticAssignmentSource source(assignment);
    return runtime::execute(cluster, nn, tasks, source, exec_rng);
  }

  dfs::NameNode nn;
  dfs::RandomPlacement policy;
  Rng placement_rng, exec_rng;
};

TEST_F(EndToEnd, OpassBeatsBaselineOnIoTimeAndBalance) {
  const auto tasks = workload::make_single_data_workload(nn, 160, policy, placement_rng);
  const auto placement = core::one_process_per_node(nn);

  const auto base =
      run(tasks, runtime::rank_interval_assignment(160, kNodes));
  Rng assign_rng(7);
  const auto plan = core::plan({&nn, &tasks, &placement, &assign_rng});
  const auto opass = run(tasks, plan.assignment);

  // Locality: baseline near r/m, Opass near 1.
  EXPECT_LT(base.trace.local_fraction(), 0.5);
  EXPECT_GT(opass.trace.local_fraction(), 0.95);

  // I/O time: Opass strictly faster on average and at the tail.
  const auto bio = summarize(base.trace.io_times());
  const auto oio = summarize(opass.trace.io_times());
  EXPECT_LT(oio.mean * 1.5, bio.mean);
  EXPECT_LT(oio.max, bio.max);

  // Makespan: the paper's bottom line.
  EXPECT_LT(opass.makespan, base.makespan);

  // Balance: Jain index of served bytes close to 1 under Opass.
  std::vector<double> bs, os;
  for (auto b : base.trace.bytes_served_per_node(kNodes)) bs.push_back(double(b));
  for (auto b : opass.trace.bytes_served_per_node(kNodes)) os.push_back(double(b));
  EXPECT_GT(jain_fairness(os), jain_fairness(bs));
  EXPECT_GT(jain_fairness(os), 0.99);
}

TEST_F(EndToEnd, MultiDataOpassImprovesButLessThanSingle) {
  const auto tasks = workload::make_multi_input_workload(nn, 64, policy, placement_rng);
  const auto placement = core::one_process_per_node(nn);

  const auto base = run(tasks, runtime::rank_interval_assignment(64, kNodes));
  const auto plan = core::plan({&nn, &tasks, &placement, nullptr},
                               {.planner = core::PlannerKind::kMultiData});
  const auto opass = run(tasks, plan.assignment);

  const double base_local = base.trace.local_fraction();
  const double opass_local = opass.trace.local_fraction();
  EXPECT_GT(opass_local, base_local);
  // "part of data must be read remotely": not full locality.
  EXPECT_LT(opass_local, 1.0);
  const auto bio = summarize(base.trace.io_times());
  const auto oio = summarize(opass.trace.io_times());
  EXPECT_LT(oio.mean, bio.mean);
}

TEST_F(EndToEnd, DynamicOpassBeatsRandomMasterWorker) {
  const auto tasks = workload::make_single_data_workload(nn, 160, policy, placement_rng);
  const auto placement = core::one_process_per_node(nn);

  sim::Cluster c1(kNodes);
  Rng mw_rng(3);
  runtime::MasterWorkerSource mw(160, mw_rng);
  const auto base = runtime::execute(c1, nn, tasks, mw, exec_rng);

  Rng assign_rng(5);
  const auto plan = core::plan({&nn, &tasks, &placement, &assign_rng});
  sim::Cluster c2(kNodes);
  core::OpassDynamicSource dyn(plan.assignment, nn, tasks, placement);
  const auto opass = runtime::execute(c2, nn, tasks, dyn, exec_rng);

  EXPECT_EQ(base.tasks_executed, 160u);
  EXPECT_EQ(opass.tasks_executed, 160u);
  EXPECT_GT(opass.trace.local_fraction(), base.trace.local_fraction());
  EXPECT_LT(summarize(opass.trace.io_times()).mean,
            summarize(base.trace.io_times()).mean);
}

TEST_F(EndToEnd, ObservedLocalityMatchesBinomialModel) {
  // The executor's baseline locality should agree with Section III-A:
  // E[local fraction] = r/m.
  const auto tasks = workload::make_single_data_workload(nn, 320, policy, placement_rng);
  const auto base = run(tasks, runtime::rank_interval_assignment(320, kNodes));
  EXPECT_NEAR(base.trace.local_fraction(), 3.0 / kNodes, 0.08);
}

TEST_F(EndToEnd, EveryByteServedByAReplicaHolder) {
  const auto tasks = workload::make_single_data_workload(nn, 64, policy, placement_rng);
  const auto base = run(tasks, runtime::rank_interval_assignment(64, kNodes));
  for (const auto& r : base.trace.records())
    EXPECT_TRUE(nn.chunk(r.chunk).has_replica_on(r.serving_node));
}

}  // namespace
}  // namespace opass
