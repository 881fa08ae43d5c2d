#include "opass/assignment_model.hpp"

#include <gtest/gtest.h>

#include "opass/planner.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

/// 32 one-chunk tasks at r = 2 on 8 nodes, one process per node, with the
/// chunks placed by `Policy`.
template <typename Policy>
struct Layout {
  Layout() : nn(dfs::Topology::single_rack(8), 2, kDefaultChunkSize), rng(4) {
    tasks = workload::make_single_data_workload(nn, 32, policy, rng);
    placement = core::one_process_per_node(nn);
  }
  dfs::NameNode nn;
  Policy policy;
  Rng rng;
  std::vector<runtime::Task> tasks;
  core::ProcessPlacement placement;
};

struct AssignmentModelFixture : ::testing::Test, Layout<dfs::RandomPlacement> {};

/// Round-robin placement gives every node 8 of the 64 replicas and admits a
/// full matching (dfs/placement.hpp), so Opass plans every task local.
using EvenLayout = Layout<dfs::RoundRobinPlacement>;

TEST_F(AssignmentModelFixture, ExpectedBytesSumToDatasetSize) {
  const auto a = runtime::rank_interval_assignment(32, 8);
  const auto served = expected_bytes_served(nn, tasks, a, placement);
  double total = 0;
  for (double b : served) total += b;
  EXPECT_NEAR(total, 32.0 * static_cast<double>(kDefaultChunkSize), 1.0);
}

TEST_F(AssignmentModelFixture, FullyLocalAssignmentServesFromReaders) {
  const EvenLayout even;
  Rng arng(5);
  const auto result = plan({&even.nn, &even.tasks, &even.placement, &arng});
  ASSERT_EQ(result.randomly_filled, 0u);
  const auto served =
      expected_bytes_served(even.nn, even.tasks, result.assignment, even.placement);
  // Locally served with certainty: every byte accounted on a reader node,
  // and each node serves exactly its own process's assigned bytes.
  for (std::uint32_t p = 0; p < even.placement.size(); ++p) {
    double assigned = 0;
    for (auto t : result.assignment[p])
      assigned += static_cast<double>(even.tasks[t].input_bytes(even.nn));
    EXPECT_NEAR(served[even.placement[p]], assigned, 1.0);
  }
}

TEST_F(AssignmentModelFixture, MonteCarloAgreesWithExpectation) {
  // Drive the actual read policy many times and compare average served
  // bytes per node to the analytic expectation.
  const auto a = runtime::rank_interval_assignment(32, 8);
  const auto expected = expected_bytes_served(nn, tasks, a, placement);

  std::vector<double> empirical(nn.node_count(), 0.0);
  const int trials = 3000;
  Rng choice_rng(99);
  for (int trial = 0; trial < trials; ++trial) {
    for (std::uint32_t p = 0; p < a.size(); ++p) {
      for (auto t : a[p]) {
        const auto& chunk = nn.chunk(tasks[t].inputs[0]);
        const auto server = dfs::choose_serving_node(chunk, placement[p], {},
                                                     dfs::ReplicaChoice::kRandom, choice_rng);
        empirical[server] += static_cast<double>(chunk.size);
      }
    }
  }
  for (std::uint32_t node = 0; node < nn.node_count(); ++node) {
    EXPECT_NEAR(empirical[node] / trials, expected[node],
                0.05 * static_cast<double>(kDefaultChunkSize) * 32)
        << "node " << node;
  }
}

TEST_F(AssignmentModelFixture, SimulatedMakespanRespectsLowerBound) {
  for (const bool use_opass : {false, true}) {
    runtime::Assignment a;
    if (use_opass) {
      Rng arng(5);
      a = plan({&nn, &tasks, &placement, &arng}).assignment;
    } else {
      a = runtime::rank_interval_assignment(32, 8);
    }
    sim::ClusterParams params;
    const Seconds bound =
        makespan_lower_bound(nn, tasks, a, placement, params.disk_bandwidth);

    sim::Cluster cluster(8, params);
    runtime::StaticAssignmentSource source(a);
    Rng exec_rng(13);
    const auto result = runtime::execute(cluster, nn, tasks, source, exec_rng);
    EXPECT_GE(result.makespan, bound * 0.999) << (use_opass ? "opass" : "baseline");
    EXPECT_GT(bound, 0.0);
  }
}

TEST_F(AssignmentModelFixture, BoundTightForFullLocality) {
  const EvenLayout even;
  Rng arng(5);
  const auto planned = plan({&even.nn, &even.tasks, &even.placement, &arng});
  ASSERT_EQ(planned.randomly_filled, 0u);
  sim::ClusterParams params;
  const Seconds bound = makespan_lower_bound(even.nn, even.tasks, planned.assignment,
                                             even.placement, params.disk_bandwidth);

  sim::Cluster cluster(8, params);
  runtime::StaticAssignmentSource source(planned.assignment);
  Rng exec_rng(13);
  const auto result = runtime::execute(cluster, even.nn, even.tasks, source, exec_rng);
  // Fully local reads: the only gap to the bound is per-read seek latency.
  const double overhead = 4.0 * params.seek_latency;  // 4 chunks per process
  EXPECT_LE(result.makespan, bound + overhead + 0.1);
}

TEST_F(AssignmentModelFixture, Validation) {
  runtime::Assignment wrong(3);
  EXPECT_THROW(expected_bytes_served(nn, tasks, wrong, placement), std::invalid_argument);
  runtime::Assignment bad_task(8);
  bad_task[0].push_back(999);
  EXPECT_THROW(expected_bytes_served(nn, tasks, bad_task, placement),
               std::invalid_argument);
}

}  // namespace
}  // namespace opass::core
