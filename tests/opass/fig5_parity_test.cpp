// Edge-for-edge parity of core::solve_fig5 with the reference Dinic
// (tests/support/reference_dinic.hpp). solve_fig5 runs Dinic's phase 0 as a
// process-major greedy and graph::max_flow from there; the reference re-solves
// the same network from zero flow with the full-BFS Dinic. Every edge must
// carry the same flow and every task get the same owner, on Fig. 5 networks
// with unit and byte capacities, task-major and process-major locality
// edges, zero-quota processes, zero-capacity tasks and tasks with no
// locality edge.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "opass/fig5.hpp"
#include "support/reference_dinic.hpp"

namespace opass::core {
namespace {

struct Instance {
  std::vector<graph::Cap> process_caps;
  std::vector<graph::Cap> task_caps;  ///< empty: unit capacities
  std::vector<std::vector<std::uint32_t>> holders;  ///< per task, in edge order
  bool process_major = false;
};

/// A random Fig. 5 instance; `bytes` draws byte capacities (with splits and
/// zero-capacity tasks) instead of unit ones.
Instance random_instance(Rng& rng, bool bytes, bool process_major) {
  Instance in;
  in.process_major = process_major;
  const auto m = static_cast<std::uint32_t>(1 + rng.uniform(40));
  const auto n = static_cast<std::uint32_t>(1 + rng.uniform(300));
  in.holders.resize(n);
  for (auto& row : in.holders) {
    const auto count = rng.uniform(5);  // 0: a task with no locality edge
    for (std::uint64_t i = 0; i < count; ++i)
      row.push_back(static_cast<std::uint32_t>(rng.uniform(m)));
  }
  if (bytes) {
    graph::Cap total = 0;
    for (std::uint32_t task = 0; task < n; ++task) {
      in.task_caps.push_back(rng.uniform(8) == 0 ? 0 : static_cast<graph::Cap>(1 + rng.uniform(64)));
      total += in.task_caps.back();
    }
    for (std::uint32_t p = 0; p < m; ++p)
      in.process_caps.push_back(rng.uniform(6) == 0
                                    ? 0
                                    : static_cast<graph::Cap>(rng.uniform(
                                          static_cast<std::uint64_t>(2 * total / m) + 2)));
  } else {
    for (std::uint32_t p = 0; p < m; ++p)
      in.process_caps.push_back(
          rng.uniform(6) == 0 ? 0 : static_cast<graph::Cap>(rng.uniform(2 * n / m + 2)));
  }
  return in;
}

/// Owner per task from the flows on the network's locality edges: the
/// process carrying most of the task's flow, the lowest one on ties.
std::vector<std::uint32_t> owners_from_flows(const graph::FlowNetwork& net, std::uint32_t m,
                                             std::uint32_t n) {
  const graph::NodeIdx task0 = Fig5Edges::kFirstProcess + m;
  std::vector<std::uint32_t> owner(n, kNoOwner);
  std::vector<graph::Cap> best(n, 0);
  for (graph::EdgeIdx e = m; e < net.edge_count() - n; ++e) {
    const std::uint32_t task = net.edge_to(e) - task0;
    const std::uint32_t p = net.edge_from(e) - Fig5Edges::kFirstProcess;
    const graph::Cap f = net.flow(e);
    if (f > best[task] || (f > 0 && f == best[task] && p < owner[task])) {
      best[task] = f;
      owner[task] = p;
    }
  }
  return owner;
}

void expect_parity(graph::FlowWorkspace& ws, const Instance& in, const std::string& what) {
  const auto m = static_cast<std::uint32_t>(in.process_caps.size());
  const auto n = static_cast<std::uint32_t>(in.holders.size());
  const auto owner = solve_fig5(
      ws, in.process_caps, n,
      [&](const Fig5Edges& edge) {
        if (!in.process_major) {
          for (std::uint32_t task = 0; task < n; ++task)
            for (std::uint32_t p : in.holders[task]) edge(p, task);
          return;
        }
        for (std::uint32_t p = 0; p < m; ++p)
          for (std::uint32_t task = 0; task < n; ++task)
            for (std::uint32_t h : in.holders[task])
              if (h == p) edge(p, task);
      },
      in.task_caps);
  graph::FlowNetwork& net = ws.network;
  std::vector<graph::Cap> flows(net.edge_count());
  for (graph::EdgeIdx e = 0; e < net.edge_count(); ++e) flows[e] = net.flow(e);
  EXPECT_EQ(owner, owners_from_flows(net, m, n)) << what;

  net.reset_flow();
  (void)oracle::reference_dinic(net, 0, 1);
  for (graph::EdgeIdx e = 0; e < net.edge_count(); ++e)
    ASSERT_EQ(flows[e], net.flow(e)) << what << " edge " << e;
  EXPECT_EQ(owner, owners_from_flows(net, m, n)) << what;
}

TEST(Fig5Parity, GreedyPhaseZeroMatchesReferenceDinic) {
  graph::FlowWorkspace ws;  // warm across every instance, as planners reuse it
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed + 3000);
    const bool bytes = seed % 2 == 1;
    const bool process_major = seed % 4 >= 2;
    const Instance in = random_instance(rng, bytes, process_major);
    expect_parity(ws, in,
                  "seed " + std::to_string(seed) + (bytes ? " bytes" : " unit") +
                      (process_major ? " process-major" : " task-major"));
  }
}

TEST(Fig5Parity, DegenerateShapesMatchReferenceDinic) {
  graph::FlowWorkspace ws;
  // Every quota zero; no locality edge at all; one process holding every
  // task; every task capacity zero.
  Instance zero_quota{{0, 0, 0}, {}, {{0}, {1, 2}, {2}}, false};
  expect_parity(ws, zero_quota, "zero quotas");
  Instance no_edges{{2, 2}, {}, {{}, {}, {}}, false};
  expect_parity(ws, no_edges, "no locality edges");
  Instance one_holder{{5, 0}, {}, {{0}, {0}, {0}, {0}, {0}, {0}, {0}}, true};
  expect_parity(ws, one_holder, "one holder");
  Instance zero_tasks{{4, 4}, {0, 0, 0}, {{0, 1}, {1}, {0}}, false};
  expect_parity(ws, zero_tasks, "zero-capacity tasks");
  Instance duplicate_edges{{3, 3}, {5, 7}, {{0, 0, 1}, {1, 1, 0}}, false};
  expect_parity(ws, duplicate_edges, "duplicate locality edges");
}

}  // namespace
}  // namespace opass::core
