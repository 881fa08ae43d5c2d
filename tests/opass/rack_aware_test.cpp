#include <gtest/gtest.h>

#include "opass/fig5.hpp"
#include "opass/planner.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

constexpr PlanOptions kRackAware{.planner = PlannerKind::kRackAware};

TEST(RackAware, SingleRackDegeneratesToNodeLocalPlusFill) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  const auto tasks = workload::make_single_data_workload(nn, 32, policy, rng);
  const auto placement = one_process_per_node(nn);

  Rng r1(2), r2(2);
  const auto rack = plan({&nn, &tasks, &placement, &r1}, kRackAware);
  const auto unit = plan({&nn, &tasks, &placement, &r2});
  EXPECT_EQ(rack.rack_local, 0u);  // no second rack exists
  EXPECT_EQ(rack.locally_matched, unit.locally_matched);
  EXPECT_TRUE(runtime::is_partition(rack.assignment, 32));
}

TEST(RackAware, QuotasRespected) {
  dfs::NameNode nn(dfs::Topology::uniform_racks(12, 3), 2, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(3);
  const auto tasks = workload::make_single_data_workload(nn, 30, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = plan({&nn, &tasks, &placement, &rng}, kRackAware);
  EXPECT_TRUE(runtime::is_partition(result.assignment, 30));
  const auto quotas = equal_quotas(30, 12);
  for (std::uint32_t p = 0; p < 12; ++p)
    EXPECT_EQ(result.assignment[p].size(), quotas[p]) << "p=" << p;
  EXPECT_EQ(result.locally_matched + result.rack_local + result.randomly_filled, 30u);
}

TEST(RackAware, RackPhaseRecoversWhatNodePhaseCannot) {
  // r = 1 on a racked cluster: node-local matching is weak (one replica),
  // but the rack phase should place most leftovers within the right rack.
  dfs::NameNode nn(dfs::Topology::uniform_racks(16, 4), 1, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(5);
  const auto tasks = workload::make_single_data_workload(nn, 64, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = plan({&nn, &tasks, &placement, &rng}, kRackAware);

  EXPECT_GT(result.rack_local, 0u);
  EXPECT_GT(result.locally_matched + result.rack_local, 48u);  // most tasks in-rack

  // Verify the claimed locality levels are real.
  const auto& topo = nn.topology();
  std::uint32_t node_ok = 0, rack_ok = 0;
  for (std::uint32_t p = 0; p < placement.size(); ++p) {
    for (auto t : result.assignment[p]) {
      const auto& chunk = nn.chunk(tasks[t].inputs[0]);
      if (chunk.has_replica_on(placement[p])) {
        ++node_ok;
        continue;
      }
      for (auto rep : chunk.replicas)
        if (topo.rack_of(rep) == topo.rack_of(placement[p])) {
          ++rack_ok;
          break;
        }
    }
  }
  EXPECT_GE(node_ok, result.locally_matched);
  EXPECT_GE(node_ok + rack_ok, result.locally_matched + result.rack_local);
}

TEST(RackAware, NodeLocalAlwaysPreferred) {
  // Node-local count must match the plain matcher's optimum: the rack phase
  // never cannibalizes node locality.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    dfs::NameNode nn(dfs::Topology::uniform_racks(16, 4), 2, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    const auto tasks = workload::make_single_data_workload(nn, 48, policy, rng);
    const auto placement = one_process_per_node(nn);
    Rng r1(seed + 10), r2(seed + 10);
    const auto rack = plan({&nn, &tasks, &placement, &r1}, kRackAware);
    const auto unit = plan({&nn, &tasks, &placement, &r2});
    EXPECT_EQ(rack.locally_matched, unit.locally_matched) << "seed " << seed;
  }
}

TEST(RackAware, RejectsMultiInputTasks) {
  dfs::NameNode nn(dfs::Topology::uniform_racks(4, 2), 2, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  nn.create_file("a", 2 * kDefaultChunkSize, policy, rng);
  runtime::Task t;
  t.inputs = {0, 1};
  const std::vector<runtime::Task> tasks{t};
  const auto placement = one_process_per_node(nn);
  EXPECT_THROW((void)plan({&nn, &tasks, &placement, &rng}, kRackAware), std::invalid_argument);
}

}  // namespace
}  // namespace opass::core
