// Planner thread-count parity: PlanOptions::threads (or a lent pool) may
// change only wall clock, never the plan. Every planner kind must emit
// byte-identical wire bytes for threads = 1, 2, 4, 8, whether the pool is
// transient or borrowed, and whether the workspace is fresh or warm.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "opass/opass.hpp"
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

/// One full planning run with the given parallelism, serialized. A fresh
/// same-seeded rng per run keeps the random-fill stream comparable.
std::string planned_wire_bytes(std::uint64_t seed, PlannerKind kind,
                               std::uint32_t threads, ThreadPool* pool = nullptr) {
  const auto layout = make_layout(seed, 24, 120);
  graph::FlowWorkspace workspace;
  PlanOptions options;
  options.planner = kind;
  options.workspace = &workspace;
  options.threads = threads;
  options.pool = pool;
  Rng assign_rng(seed + 17);
  const auto result = core::plan({&layout.nn, &layout.tasks, &layout.placement, &assign_rng},
                                 options);
  return serialize_assignment(result.assignment,
                              static_cast<std::uint32_t>(layout.tasks.size()));
}

TEST(PlanParallel, EveryPlannerKindMatchesSerialForEveryThreadCount) {
  for (PlannerKind kind : {PlannerKind::kSingleData, PlannerKind::kWeighted,
                           PlannerKind::kRackAware, PlannerKind::kMultiData}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto serial = planned_wire_bytes(seed, kind, 1);
      for (std::uint32_t threads : {2u, 4u, 8u})
        EXPECT_EQ(planned_wire_bytes(seed, kind, threads), serial)
            << planner_kind_name(kind) << " seed " << seed << " threads " << threads;
    }
  }
}

TEST(PlanParallel, LentPoolMatchesTransientPoolAndSerial) {
  ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto serial = planned_wire_bytes(seed, PlannerKind::kSingleData, 1);
    EXPECT_EQ(planned_wire_bytes(seed, PlannerKind::kSingleData, 1, &pool), serial)
        << "lent pool, seed " << seed;
    EXPECT_EQ(planned_wire_bytes(seed, PlannerKind::kSingleData, 4), serial)
        << "transient pool, seed " << seed;
  }
}

TEST(PlanParallel, WarmWorkspaceUnderPoolStaysExact) {
  // Dynamic replanning reuses one workspace across layouts; the parallel
  // scratch must not leak state between solves of different shapes.
  ThreadPool pool(4);
  graph::FlowWorkspace warm_ws;
  for (std::uint64_t seed : {7ull, 2ull, 11ull}) {
    const auto layout = make_layout(seed, 20, 90);
    PlanOptions options;
    options.workspace = &warm_ws;
    options.pool = &pool;
    Rng warm_rng(seed + 17);
    const auto warm = core::plan({&layout.nn, &layout.tasks, &layout.placement, &warm_rng},
                                 options);

    graph::FlowWorkspace fresh_ws;
    PlanOptions serial_options;
    serial_options.workspace = &fresh_ws;
    Rng fresh_rng(seed + 17);
    const auto fresh =
        core::plan({&layout.nn, &layout.tasks, &layout.placement, &fresh_rng}, serial_options);
    EXPECT_EQ(warm.assignment, fresh.assignment) << "seed " << seed;
  }
}

TEST(PlanParallel, ThrowingPlannerRestoresWorkspacePool) {
  // A planner that throws must still hand the caller's workspace back
  // without the lent pool, or the workspace keeps pointing at it.
  auto layout = make_layout(5, 8, 16);
  layout.tasks[3].inputs.push_back(layout.tasks[4].inputs[0]);  // a two-input task
  ThreadPool pool(2);
  graph::FlowWorkspace ws;
  PlanOptions options;
  options.workspace = &ws;
  options.pool = &pool;
  Rng rng(1);
  EXPECT_THROW((void)core::plan({&layout.nn, &layout.tasks, &layout.placement, &rng}, options),
               std::invalid_argument);
  EXPECT_EQ(ws.pool, nullptr);
}

}  // namespace
}  // namespace opass::core
