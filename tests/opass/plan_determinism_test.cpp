// Determinism regression: the same seed and layout must produce a
// byte-identical plan (compared through the plan_io wire format) across two
// independent runs. This pins the CSR network's finalize order and the
// Dinic traversal order — any nondeterminism (hash iteration, pointer
// ordering, uninitialized scratch in the reused workspace) breaks the wire
// bytes, not just a statistic.
#include <gtest/gtest.h>

#include <string>

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

Layout make_layout(std::uint64_t seed, std::uint32_t nodes, std::uint32_t tasks) {
  Rng rng(seed);
  Layout layout{dfs::NameNode(dfs::Topology::single_rack(nodes), 3), {}, {}};
  dfs::RandomPlacement policy;
  layout.tasks = workload::make_single_data_workload(layout.nn, tasks, policy, rng);
  layout.placement = one_process_per_node(layout.nn);
  return layout;
}

/// One full planning run, serialized: rebuild the layout from the seed and
/// plan through the facade into a fresh workspace.
std::string planned_wire_bytes(std::uint64_t seed, PlannerKind kind) {
  const auto layout = make_layout(seed, 24, 120);
  graph::FlowWorkspace workspace;
  PlanOptions options;
  options.planner = kind;
  options.workspace = &workspace;
  Rng assign_rng(seed + 17);
  const auto result = core::plan({&layout.nn, &layout.tasks, &layout.placement, &assign_rng},
                                 options);
  return serialize_assignment(result.assignment,
                              static_cast<std::uint32_t>(layout.tasks.size()));
}

TEST(PlanDeterminism, SingleDataDinicIsByteIdenticalAcrossRuns) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto first = planned_wire_bytes(seed, PlannerKind::kSingleData);
    const auto second = planned_wire_bytes(seed, PlannerKind::kSingleData);
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

TEST(PlanDeterminism, SingleDataMatchesTheOracleOnItsNetwork) {
  // The deterministic plan is also a maximum one: the facade's matched count
  // equals the Edmonds–Karp oracle's value on the network it solved.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto layout = make_layout(seed, 24, 120);
    graph::FlowWorkspace workspace;
    PlanOptions options;
    options.workspace = &workspace;
    Rng assign_rng(seed + 17);
    const auto result = core::plan({&layout.nn, &layout.tasks, &layout.placement, &assign_rng},
                                   options);
    workspace.network.reset_flow();
    EXPECT_EQ(static_cast<graph::Cap>(result.locally_matched),
              oracle::edmonds_karp(workspace.network, 0, 1))
        << "seed " << seed;
  }
}

TEST(PlanDeterminism, MultiDataIsByteIdenticalAcrossRuns) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto first = planned_wire_bytes(seed, PlannerKind::kMultiData);
    const auto second = planned_wire_bytes(seed, PlannerKind::kMultiData);
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

TEST(PlanDeterminism, WorkspaceCarriedAcrossDifferentLayoutsStaysClean) {
  // The dirty-workspace case the per-run tests can't see: plan layout A,
  // then layout B through the same workspace, and require B's plan to be
  // byte-identical to a fresh-workspace run of B.
  graph::FlowWorkspace workspace;
  const auto warm = make_layout(3, 30, 200);
  Rng warm_rng(3);
  (void)plan({&warm.nn, &warm.tasks, &warm.placement, &warm_rng}, {.workspace = &workspace});

  const auto layout = make_layout(4, 24, 120);
  Rng rng_dirty(21), rng_fresh(21);
  const auto dirty = plan({&layout.nn, &layout.tasks, &layout.placement, &rng_dirty},
                          {.workspace = &workspace});
  const auto fresh = plan({&layout.nn, &layout.tasks, &layout.placement, &rng_fresh});
  EXPECT_EQ(serialize_assignment(dirty.assignment, 120),
            serialize_assignment(fresh.assignment, 120));
}

}  // namespace
}  // namespace opass::core
