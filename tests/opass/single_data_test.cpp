#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "opass/assignment_stats.hpp"
#include "opass/fig5.hpp"
#include "opass/planner.hpp"
#include "support/edmonds_karp.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

TEST(EqualQuotas, DistributesRemainder) {
  EXPECT_EQ(equal_quotas(10, 4), (std::vector<std::uint32_t>{3, 3, 2, 2}));
  EXPECT_EQ(equal_quotas(8, 4), (std::vector<std::uint32_t>{2, 2, 2, 2}));
  EXPECT_EQ(equal_quotas(0, 2), (std::vector<std::uint32_t>{0, 0}));
  EXPECT_THROW(equal_quotas(4, 0), std::invalid_argument);
}

TEST(Fig5Edges, RejectsAnOutOfRangeProcessOrTaskNamingIt) {
  // Two processes and two tasks. Process 2 would land on task node 0 and
  // task 2 on no node at all.
  graph::FlowWorkspace ws;
  const std::vector<graph::Cap> caps{1, 1};
  const auto error_of = [&](std::uint32_t process, std::uint32_t task) -> std::string {
    try {
      (void)solve_fig5(ws, caps, 2, [&](const Fig5Edges& edge) { edge(process, task); });
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(error_of(2, 1).find("from process 2 of 2"), std::string::npos) << error_of(2, 1);
  EXPECT_NE(error_of(1, 2).find("to task 2 of 2"), std::string::npos) << error_of(1, 2);
  EXPECT_EQ(solve_fig5(ws, caps, 2, [](const Fig5Edges& edge) { edge(1, 1); }),
            (std::vector<std::uint32_t>{kNoOwner, 1}));
}

TEST(SingleDataTest, RoundRobinLayoutYieldsFullMatching) {
  // Perfectly even placement: a full matching must exist and be found.
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RoundRobinPlacement policy;
  Rng rng(1);
  const auto tasks = workload::make_single_data_workload(nn, 32, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = plan({&nn, &tasks, &placement, &rng});

  EXPECT_EQ(result.locally_matched, 32u);
  EXPECT_EQ(result.randomly_filled, 0u);
  EXPECT_TRUE(runtime::is_partition(result.assignment, 32));
  const auto stats = evaluate_assignment(nn, tasks, result.assignment, placement);
  EXPECT_DOUBLE_EQ(stats.local_fraction(), 1.0);
}

TEST(SingleDataTest, QuotasAreExact) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(7);
  const auto tasks = workload::make_single_data_workload(nn, 36, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = plan({&nn, &tasks, &placement, &rng});

  const auto quotas = equal_quotas(36, 8);
  for (std::uint32_t p = 0; p < 8; ++p)
    EXPECT_EQ(result.assignment[p].size(), quotas[p]) << "p=" << p;
  EXPECT_TRUE(runtime::is_partition(result.assignment, 36));
}

TEST(SingleDataTest, MatchedTasksAreActuallyLocal) {
  dfs::NameNode nn(dfs::Topology::single_rack(16), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(3);
  const auto tasks = workload::make_single_data_workload(nn, 64, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = plan({&nn, &tasks, &placement, &rng});

  // locally_matched must equal the number of (process, task) pairs where the
  // chunk is on the process's node.
  std::uint32_t local = 0;
  for (std::uint32_t p = 0; p < placement.size(); ++p)
    for (auto t : result.assignment[p])
      if (nn.chunk(tasks[t].inputs[0]).has_replica_on(placement[p])) ++local;
  EXPECT_EQ(local, result.locally_matched);
  EXPECT_EQ(result.locally_matched + result.randomly_filled, 64u);
}

TEST(SingleDataTest, MatchingIsMaximum) {
  // Verify optimality on a crafted instance whose optimum is known (the
  // randomized oracle parity lives in SingleData.MatchesOracleOnTheSameNetwork).
  //
  //  4 nodes, r=1, 4 chunks placed: c0->n0, c1->n0, c2->n1, c3->n2.
  //  Quota = 1 task per process. Max local = 3 (c0 or c1 on p0, c2 on p1,
  //  c3 on p2); p3 takes the leftover remotely.
  dfs::NameNode nn(dfs::Topology::single_rack(4), 1, kDefaultChunkSize);
  class FixedPlacement : public dfs::PlacementPolicy {
   public:
    dfs::ReplicaList place(const dfs::Topology&, dfs::NodeId, std::uint32_t, Rng&) override {
      static const dfs::NodeId seq[] = {0, 0, 1, 2};
      return {seq[i_++]};
    }
    std::string name() const override { return "fixed"; }
    int i_ = 0;
  } policy;
  Rng rng(5);
  const auto tasks = workload::make_single_data_workload(nn, 4, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = plan({&nn, &tasks, &placement, &rng});
  EXPECT_EQ(result.locally_matched, 3u);
  EXPECT_EQ(result.randomly_filled, 1u);
}

TEST(SingleDataTest, ReassignmentBeatsGreedy) {
  // The flow cancellation case: p0 co-located with {c0, c1}, p1 only with
  // {c0}. Greedy could give c0 to p0 and leave p1 remote; max-flow must
  // reach 2 local tasks.
  dfs::NameNode nn(dfs::Topology::single_rack(2), 1, kDefaultChunkSize);
  class FixedPlacement : public dfs::PlacementPolicy {
   public:
    dfs::ReplicaList place(const dfs::Topology&, dfs::NodeId, std::uint32_t, Rng&) override {
      static const dfs::NodeId seq[] = {0, 0};
      return {seq[i_++]};
    }
    std::string name() const override { return "fixed"; }
    int i_ = 0;
  } policy;
  Rng rng(5);
  auto tasks = workload::make_single_data_workload(nn, 2, policy, rng);
  const auto placement = one_process_per_node(nn);
  // Both chunks on node 0, quota 1 each: only one can be local.
  const auto result = plan({&nn, &tasks, &placement, &rng});
  EXPECT_EQ(result.locally_matched, 1u);
  // And the local one must be on p0.
  EXPECT_TRUE(nn.chunk(tasks[result.assignment[0][0]].inputs[0]).has_replica_on(0));
}

TEST(SingleDataTest, RejectsMultiInputTasks) {
  dfs::NameNode nn(dfs::Topology::single_rack(2), 1, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(5);
  nn.create_file("a", 2 * kDefaultChunkSize, policy, rng);
  runtime::Task t;
  t.inputs = {0, 1};
  const std::vector<runtime::Task> tasks{t};
  const auto placement = one_process_per_node(nn);
  EXPECT_THROW((void)plan({&nn, &tasks, &placement, &rng}), std::invalid_argument);
}

TEST(SingleDataTest, LocalityBeatsRankIntervalOnRandomLayouts) {
  // Property sweep: on random layouts Opass's planned locality must always
  // dominate the rank-interval baseline's.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    dfs::NameNode nn(dfs::Topology::single_rack(16), 3, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    const auto tasks = workload::make_single_data_workload(nn, 80, policy, rng);
    const auto placement = one_process_per_node(nn);

    const auto result = plan({&nn, &tasks, &placement, &rng});
    const auto opass_stats = evaluate_assignment(nn, tasks, result.assignment, placement);
    const auto base = runtime::rank_interval_assignment(80, 16);
    const auto base_stats = evaluate_assignment(nn, tasks, base, placement);

    EXPECT_GE(opass_stats.local_fraction(), base_stats.local_fraction()) << "seed " << seed;
    EXPECT_GT(opass_stats.local_fraction(), 0.9) << "seed " << seed;
  }
}

TEST(SingleData, MatchesOracleOnTheSameNetwork) {
  // The planner's locally_matched is the max-flow value of its Fig. 5
  // network: re-solving that network with the Edmonds–Karp oracle after
  // reset_flow() must give the same count.
  graph::FlowWorkspace ws;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    dfs::NameNode nn(dfs::Topology::single_rack(12), 3, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng prng(seed + 100);
    const auto tasks = workload::make_single_data_workload(nn, 60, policy, prng);
    const auto placement = one_process_per_node(nn);
    const auto result = plan({&nn, &tasks, &placement, &rng}, {.workspace = &ws});
    ws.network.reset_flow();
    EXPECT_EQ(static_cast<graph::Cap>(result.locally_matched),
              oracle::edmonds_karp(ws.network, 0, 1))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace opass::core
