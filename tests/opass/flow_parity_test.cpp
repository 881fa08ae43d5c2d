// Randomized solver-parity property: on generated layouts, every flow
// planner's matched count must equal the max-flow value the independent
// Edmonds–Karp oracle finds on the planner's own network (re-solved after
// FlowNetwork::reset_flow()) — and every plan must pass the static auditor.
// This is the regression net for the Dinic solver: a broken phase or
// blocking flow would show up as a sub-maximum matching on some layout here.
#include <gtest/gtest.h>

#include <memory>

#include "opass/opass.hpp"
#include "support/edmonds_karp.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

struct Layout {
  dfs::NameNode nn;
  std::vector<runtime::Task> tasks;
  ProcessPlacement placement;
};

/// Generate a random cluster layout: size, replication, and placement policy
/// all drawn from the seed.
Layout make_layout(std::uint64_t seed) {
  Rng rng(seed);
  const auto nodes = static_cast<std::uint32_t>(4 + rng.uniform(28));
  const auto replication = static_cast<std::uint32_t>(1 + rng.uniform(3));
  const auto tasks_per_node = static_cast<std::uint32_t>(1 + rng.uniform(12));
  Layout layout{dfs::NameNode(dfs::Topology::single_rack(nodes), replication), {}, {}};

  const auto kind = rng.uniform(3);
  std::unique_ptr<dfs::PlacementPolicy> policy;
  if (kind == 0) {
    policy = std::make_unique<dfs::RandomPlacement>();
  } else if (kind == 1) {
    policy = std::make_unique<dfs::RoundRobinPlacement>();
  } else {
    policy = dfs::make_placement(dfs::PlacementKind::kHdfsDefault);
  }
  layout.tasks = workload::make_single_data_workload(layout.nn, nodes * tasks_per_node,
                                                     *policy, rng);
  layout.placement = one_process_per_node(layout.nn);
  return layout;
}

/// Max-flow value of the network a planner left in `ws` (terminals s = 0,
/// t = 1 in every Fig. 5 builder), re-solved from zero flow by the oracle.
graph::Cap oracle_value(graph::FlowWorkspace& ws) {
  ws.network.reset_flow();
  return oracle::edmonds_karp(ws.network, 0, 1);
}

TEST(FlowParity, SingleDataMatchesAreEqualAndAudited) {
  graph::FlowWorkspace ws;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto layout = make_layout(seed);
    Rng rng(seed + 1);
    const auto result =
        plan({&layout.nn, &layout.tasks, &layout.placement, &rng}, {.workspace = &ws});
    EXPECT_EQ(static_cast<graph::Cap>(result.locally_matched), oracle_value(ws))
        << "seed " << seed;

    AuditOptions audit;
    audit.enforce_capacity = true;
    const auto report =
        audit_plan(layout.nn, layout.tasks, result.assignment, layout.placement, audit);
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.to_string();
  }
}

TEST(FlowParity, RackAwarePhaseTotalsAreEqual) {
  graph::FlowWorkspace ws;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Rng lrng(seed + 500);
    const auto nodes = static_cast<std::uint32_t>(8 + lrng.uniform(24));
    dfs::NameNode nn(dfs::Topology::uniform_racks(nodes, 4), 2);
    dfs::RandomPlacement policy;
    const auto tasks = workload::make_single_data_workload(nn, nn.node_count() * 6, policy,
                                                           lrng);
    const auto placement = one_process_per_node(nn);

    // Phase 1 is the single-data node-local network, so node_local must
    // equal the oracle's value on that network.
    Rng rng_single(seed + 1), rng_rack(seed + 1);
    (void)plan({&nn, &tasks, &placement, &rng_single}, {.workspace = &ws});
    const graph::Cap node_local_max = oracle_value(ws);
    const auto rack = plan({&nn, &tasks, &placement, &rng_rack},
                           {.planner = PlannerKind::kRackAware, .workspace = &ws});
    EXPECT_EQ(static_cast<graph::Cap>(rack.locally_matched), node_local_max)
        << "seed " << seed;
    // With several racks, phase 2 runs whenever phase 1 leaves tasks open,
    // and the workspace then holds its rack-local network.
    if (rack.locally_matched < tasks.size()) {
      EXPECT_EQ(static_cast<graph::Cap>(rack.rack_local), oracle_value(ws)) << "seed " << seed;
    }
    EXPECT_EQ(rack.locally_matched + rack.rack_local + rack.randomly_filled, tasks.size())
        << "seed " << seed;
  }
}

TEST(FlowParity, WorkspaceReuseReproducesTheFreshPlan) {
  // A shared workspace must be invisible in the results: replanning many
  // layouts through one workspace gives byte-identical assignments to fresh
  // per-call networks.
  graph::FlowWorkspace ws;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const auto layout = make_layout(seed);
    Rng rng_fresh(seed), rng_reused(seed);
    const auto fresh = plan({&layout.nn, &layout.tasks, &layout.placement, &rng_fresh});
    const auto reused = plan({&layout.nn, &layout.tasks, &layout.placement, &rng_reused},
                             {.workspace = &ws});
    EXPECT_EQ(fresh.assignment, reused.assignment) << "seed " << seed;
    EXPECT_EQ(fresh.locally_matched, reused.locally_matched) << "seed " << seed;
  }
}

}  // namespace
}  // namespace opass::core
