// Parallel Dinic determinism: with a worker pool in the workspace, Dinic
// runs its per-phase blocking flows concurrently across the connected
// components of the network minus {s, t} — and must leave every edge with
// exactly the flow the serial solver assigns (see run_dinic_parallel in
// max_flow.cpp for the equivalence argument), falling back to the serial
// solver when the network doesn't decompose.
#include "graph/max_flow.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.hpp"

namespace opass::graph {
namespace {

/// A Fig. 5-shaped network: s -> per-file task nodes -> replica node-slots
/// -> t, decomposing into `files` components once s and t are removed.
struct Fig5Builder {
  std::uint32_t files = 6;
  std::uint32_t tasks_per_file = 8;
  std::uint32_t slots_per_file = 5;
  Cap slot_cap = 2;

  /// Node layout: 0 = s, 1 = t, then per file its task nodes and slot nodes.
  FlowNetwork build() const {
    const NodeIdx n = 2 + files * (tasks_per_file + slots_per_file);
    FlowNetwork net(n);
    NodeIdx next = 2;
    for (std::uint32_t f = 0; f < files; ++f) {
      const NodeIdx task0 = next;
      next += tasks_per_file;
      const NodeIdx slot0 = next;
      next += slots_per_file;
      for (std::uint32_t ti = 0; ti < tasks_per_file; ++ti) {
        net.add_edge(0, task0 + ti, 1);
        // Each task can land on 2 of its file's slots (replica choices).
        const std::uint32_t a = ti % slots_per_file;
        const std::uint32_t b = (ti + 1 + ti / slots_per_file) % slots_per_file;
        net.add_edge(task0 + ti, slot0 + a, 1);
        if (b != a) net.add_edge(task0 + ti, slot0 + b, 1);
      }
      for (std::uint32_t si = 0; si < slots_per_file; ++si)
        net.add_edge(slot0 + si, 1, slot_cap);
    }
    return net;
  }
};

/// Solve with kDinic through a workspace carrying `pool` (null = serial) and
/// return the total plus every edge's final flow.
std::pair<Cap, std::vector<Cap>> solve(const Fig5Builder& b, ThreadPool* pool) {
  FlowWorkspace ws;
  ws.pool = pool;
  ws.network = b.build();
  const Cap total = max_flow(ws, 0, 1);
  std::vector<Cap> flows(ws.network.edge_count());
  for (EdgeIdx e = 0; e < flows.size(); ++e) flows[e] = ws.network.flow(e);
  return {total, flows};
}

TEST(ParallelDinic, EdgeFlowsMatchSerialOnDecomposableNetwork) {
  Fig5Builder b;
  const auto serial = solve(b, nullptr);
  for (std::uint32_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const auto parallel = solve(b, &pool);
    EXPECT_EQ(parallel.first, serial.first) << "threads=" << threads;
    EXPECT_EQ(parallel.second, serial.second) << "threads=" << threads;
  }
}

TEST(ParallelDinic, SkewedComponentSizesStillMatch) {
  Fig5Builder b;
  b.files = 12;
  b.tasks_per_file = 3;
  b.slots_per_file = 2;
  b.slot_cap = 1;  // infeasible tasks exist: some flow is left unmatched
  const auto serial = solve(b, nullptr);
  ThreadPool pool(4);
  const auto parallel = solve(b, &pool);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelDinic, SingleComponentFallsBackToSerial) {
  // One file => one component: the parallel entry must fall back and still
  // be exact.
  Fig5Builder b;
  b.files = 1;
  const auto serial = solve(b, nullptr);
  ThreadPool pool(4);
  const auto parallel = solve(b, &pool);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelDinic, DirectSourceSinkArcFallsBackToSerial) {
  // An s->t arc breaks the component decomposition; the solver must detect
  // it and run serially rather than mis-slice s's arcs.
  auto build = [] {
    FlowNetwork net(4);
    net.add_edge(0, 1, 5);  // s -> t directly
    net.add_edge(0, 2, 3);
    net.add_edge(2, 1, 3);
    net.add_edge(0, 3, 2);
    net.add_edge(3, 1, 2);
    return net;
  };
  FlowWorkspace serial_ws;
  serial_ws.network = build();
  const Cap serial = max_flow(serial_ws, 0, 1);

  ThreadPool pool(4);
  FlowWorkspace ws;
  ws.pool = &pool;
  ws.network = build();
  const Cap parallel = max_flow(ws, 0, 1);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(parallel, 10);
  for (EdgeIdx e = 0; e < ws.network.edge_count(); ++e)
    EXPECT_EQ(ws.network.flow(e), serial_ws.network.flow(e)) << "edge " << e;
}

TEST(ParallelDinic, WorkspaceReuseAcrossSolvesStaysExact) {
  // Dynamic replanning reuses one warm workspace; the parallel scratch must
  // resize and re-slice correctly when the network changes shape.
  ThreadPool pool(4);
  FlowWorkspace ws;
  ws.pool = &pool;
  FlowWorkspace serial_ws;

  for (std::uint32_t files : {5u, 2u, 9u, 1u, 7u}) {
    Fig5Builder b;
    b.files = files;
    ws.network = b.build();
    serial_ws.network = b.build();
    const Cap parallel = max_flow(ws, 0, 1);
    const Cap serial = max_flow(serial_ws, 0, 1);
    EXPECT_EQ(parallel, serial) << "files=" << files;
    for (EdgeIdx e = 0; e < ws.network.edge_count(); ++e)
      EXPECT_EQ(ws.network.flow(e), serial_ws.network.flow(e))
          << "files=" << files << " edge " << e;
  }
}

}  // namespace
}  // namespace opass::graph
