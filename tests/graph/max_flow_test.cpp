#include "graph/max_flow.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/rng.hpp"
#include "support/edge_list.hpp"
#include "support/edmonds_karp.hpp"

namespace opass::graph {
namespace {

using Builder = FlowNetwork::Builder;

/// Solve `net` in place with graph::max_flow, lending it to a workspace.
Cap solve(FlowNetwork& net, NodeIdx s, NodeIdx t) {
  FlowWorkspace ws;
  ws.network = std::move(net);
  const Cap value = max_flow(ws, s, t);
  net = std::move(ws.network);
  return value;
}

// MaxFlowTest: structural tests of the library solver on hand-built networks.

TEST(MaxFlowTest, SingleEdge) {
  FlowNetwork net;
  net.build(2, [](Builder& edges) { edges.add_edge(0, 1, 10); });
  EXPECT_EQ(solve(net, 0, 1), 10);
}

TEST(MaxFlowTest, SeriesBottleneck) {
  FlowNetwork net;
  net.build(3, [](Builder& edges) {
    edges.add_edge(0, 1, 10);
    edges.add_edge(1, 2, 3);
  });
  EXPECT_EQ(solve(net, 0, 2), 3);
}

TEST(MaxFlowTest, ParallelPathsSum) {
  FlowNetwork net;
  net.build(4, [](Builder& edges) {
    edges.add_edge(0, 1, 4);
    edges.add_edge(1, 3, 4);
    edges.add_edge(0, 2, 6);
    edges.add_edge(2, 3, 6);
  });
  EXPECT_EQ(solve(net, 0, 3), 10);
}

TEST(MaxFlowTest, ClassicClrsNetwork) {
  // CLRS Fig 26.1: max flow 23.
  FlowNetwork net;
  net.build(6, [](Builder& edges) {
    edges.add_edge(0, 1, 16);
    edges.add_edge(0, 2, 13);
    edges.add_edge(1, 2, 10);
    edges.add_edge(2, 1, 4);
    edges.add_edge(1, 3, 12);
    edges.add_edge(3, 2, 9);
    edges.add_edge(2, 4, 14);
    edges.add_edge(4, 3, 7);
    edges.add_edge(3, 5, 20);
    edges.add_edge(4, 5, 4);
  });
  EXPECT_EQ(solve(net, 0, 5), 23);
}

TEST(MaxFlowTest, RequiresAugmentingPathCancellation) {
  // The "diamond with a cross edge" where a greedy path must be partially
  // undone via the residual edge — the paper's reassignment cancellation.
  FlowNetwork net;
  net.build(4, [](Builder& edges) {
    edges.add_edge(0, 1, 1);
    edges.add_edge(0, 2, 1);
    edges.add_edge(1, 2, 1);
    edges.add_edge(1, 3, 1);
    edges.add_edge(2, 3, 1);
  });
  EXPECT_EQ(solve(net, 0, 3), 2);
}

TEST(MaxFlowTest, DisconnectedSinkIsZero) {
  FlowNetwork net;
  net.build(4, [](Builder& edges) {
    edges.add_edge(0, 1, 5);
    edges.add_edge(2, 3, 5);
  });
  EXPECT_EQ(solve(net, 0, 3), 0);
}

TEST(MaxFlowTest, ZeroCapacityEdgeCarriesNothing) {
  FlowNetwork net;
  net.build(2, [](Builder& edges) { edges.add_edge(0, 1, 0); });
  EXPECT_EQ(solve(net, 0, 1), 0);
}

TEST(MaxFlowTest, FlowConservationHolds) {
  // On a random network: flow out of s == flow into t == returned value,
  // and every intermediate node conserves flow.
  Rng rng(7);
  support::EdgeList edges;
  for (int i = 0; i < 60; ++i) {
    const auto u = static_cast<NodeIdx>(rng.uniform(12));
    const auto v = static_cast<NodeIdx>(rng.uniform(12));
    if (u == v) continue;
    edges.add(u, v, static_cast<Cap>(rng.uniform(10)));
  }
  FlowNetwork net;
  edges.build(net, 12);
  const Cap total = solve(net, 0, 11);

  std::vector<Cap> net_out(12, 0);
  for (EdgeIdx e = 0; e < net.edge_count(); ++e) {
    EXPECT_GE(net.flow(e), 0);
    EXPECT_LE(net.flow(e), net.capacity(e));
    net_out[net.edge_from(e)] += net.flow(e);
    net_out[net.edge_to(e)] -= net.flow(e);
  }
  EXPECT_EQ(net_out[0], total);
  EXPECT_EQ(net_out[11], -total);
  for (NodeIdx v = 1; v < 11; ++v) EXPECT_EQ(net_out[v], 0) << "node " << v;
}

TEST(MaxFlowTest, RejectsEqualSourceSink) {
  FlowNetwork net;
  net.build(2, [](Builder&) {});
  EXPECT_THROW(solve(net, 0, 0), std::invalid_argument);
}

TEST(MaxFlowTest, RejectsOutOfRangeTerminals) {
  FlowNetwork net;
  net.build(2, [](Builder&) {});
  EXPECT_THROW(solve(net, 0, 9), std::invalid_argument);
}

TEST(MaxFlowAgreement, ResetFlowAllowsResolving) {
  // After reset_flow, re-running either solver reproduces the same value.
  FlowNetwork net;
  net.build(4, [](Builder& edges) {
    edges.add_edge(0, 1, 5);
    edges.add_edge(1, 3, 4);
    edges.add_edge(0, 2, 3);
    edges.add_edge(2, 3, 6);
  });
  EXPECT_EQ(oracle::edmonds_karp(net, 0, 3), 7);
  net.reset_flow();
  EXPECT_EQ(solve(net, 0, 3), 7);
  net.reset_flow();
  EXPECT_EQ(oracle::edmonds_karp(net, 0, 3), 7);
}

TEST(MaxFlowAgreement, RandomNetworksAgreeAcrossAlgorithms) {
  // Property: Dinic computes the Edmonds–Karp oracle's value on arbitrary
  // random networks.
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    const auto nodes = static_cast<NodeIdx>(4 + rng.uniform(12));
    support::EdgeList edges;
    const int edge_count = 3 * nodes;
    for (int i = 0; i < edge_count; ++i) {
      const auto u = static_cast<NodeIdx>(rng.uniform(nodes));
      const auto v = static_cast<NodeIdx>(rng.uniform(nodes));
      if (u == v) continue;
      edges.add(u, v, static_cast<Cap>(rng.uniform(20)));
    }
    FlowNetwork a;
    FlowNetwork b;
    edges.build(a, nodes);
    edges.build(b, nodes);
    const Cap fa = oracle::edmonds_karp(a, 0, nodes - 1);
    const Cap fb = solve(b, 0, nodes - 1);
    EXPECT_EQ(fa, fb) << "seed " << seed;
  }
}

TEST(MaxFlowAgreement, UnitBipartiteNetworksAgreeWithOracle) {
  // Property: on unit-capacity bipartite networks (the shape of the Fig. 5
  // network with unit quotas) Dinic and the oracle find the same
  // maximum-cardinality matching size.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const auto nl = static_cast<std::uint32_t>(2 + rng.uniform(10));
    const auto nr = static_cast<std::uint32_t>(2 + rng.uniform(10));
    const NodeIdx s = nl + nr, t = nl + nr + 1;
    support::EdgeList edges;
    for (std::uint32_t l = 0; l < nl; ++l) edges.add(s, l, 1);
    for (std::uint32_t r = 0; r < nr; ++r) edges.add(nl + r, t, 1);
    // 2·nl random left -> right edges, duplicates allowed. Each edge draws
    // its right end first: that is the draw order these instances have
    // always had.
    const int lr_edges = static_cast<int>(nl * 2);
    for (int i = 0; i < lr_edges; ++i) {
      const auto right = static_cast<std::uint32_t>(rng.uniform(nr));
      const auto left = static_cast<std::uint32_t>(rng.uniform(nl));
      edges.add(left, nl + right, 1);
    }
    FlowNetwork net;
    edges.build(net, nl + nr + 2);

    const Cap flow = solve(net, s, t);
    net.reset_flow();
    EXPECT_EQ(flow, oracle::edmonds_karp(net, s, t)) << "seed " << seed;
  }
}

TEST(MaxFlowAgreement, DirectSourceSinkArcCarriesFlow) {
  // An s->t arc is a one-edge augmenting path: Dinic saturates it alongside
  // the two-edge paths in its first phase.
  FlowWorkspace ws;
  ws.network.build(4, [](Builder& edges) {
    edges.add_edge(0, 1, 5);  // s -> t directly
    edges.add_edge(0, 2, 3);
    edges.add_edge(2, 1, 3);
    edges.add_edge(0, 3, 2);
    edges.add_edge(3, 1, 2);
  });
  EXPECT_EQ(max_flow(ws, 0, 1), 10);
  for (EdgeIdx e = 0; e < ws.network.edge_count(); ++e)
    EXPECT_EQ(ws.network.flow(e), ws.network.capacity(e)) << "edge " << e;
  ws.network.reset_flow();
  EXPECT_EQ(oracle::edmonds_karp(ws.network, 0, 1), 10);
}

/// Build a Fig. 5-shaped network into `net`: s -> per-file task nodes ->
/// replica node slots -> t. Node 0 is s, node 1 is t; each task can land on
/// one or two of its file's slots.
void build_fig5_network(FlowNetwork& net, std::uint32_t files, std::uint32_t tasks_per_file,
                        std::uint32_t slots_per_file, Cap slot_cap) {
  net.build(2 + files * (tasks_per_file + slots_per_file), [&](Builder& edges) {
    NodeIdx next = 2;
    for (std::uint32_t f = 0; f < files; ++f) {
      const NodeIdx task0 = next;
      next += tasks_per_file;
      const NodeIdx slot0 = next;
      next += slots_per_file;
      for (std::uint32_t ti = 0; ti < tasks_per_file; ++ti) {
        edges.add_edge(0, task0 + ti, 1);
        const std::uint32_t a = ti % slots_per_file;
        const std::uint32_t b = (ti + 1 + ti / slots_per_file) % slots_per_file;
        edges.add_edge(task0 + ti, slot0 + a, 1);
        if (b != a) edges.add_edge(task0 + ti, slot0 + b, 1);
      }
      for (std::uint32_t si = 0; si < slots_per_file; ++si)
        edges.add_edge(slot0 + si, 1, slot_cap);
    }
  });
}

TEST(FlowWorkspace, WarmWorkspaceMatchesFreshEdgeForEdge) {
  // Replanning reuses one warm workspace across networks of different shapes
  // (ParaView steps, dynamic re-plans); the retained arrays and scratch must
  // not leak into the next build or solve. The last shape leaves tasks
  // unmatched.
  struct Shape {
    std::uint32_t files, tasks_per_file, slots_per_file;
    Cap slot_cap;
  };
  FlowWorkspace warm;
  for (const Shape& sh : {Shape{5, 8, 5, 2}, Shape{2, 8, 5, 2}, Shape{9, 8, 5, 2},
                          Shape{1, 8, 5, 2}, Shape{12, 3, 2, 1}}) {
    FlowWorkspace fresh;
    for (FlowNetwork* net : {&warm.network, &fresh.network})
      build_fig5_network(*net, sh.files, sh.tasks_per_file, sh.slots_per_file, sh.slot_cap);
    const Cap value = max_flow(warm, 0, 1);
    EXPECT_EQ(value, max_flow(fresh, 0, 1)) << "files=" << sh.files;
    for (EdgeIdx e = 0; e < warm.network.edge_count(); ++e)
      EXPECT_EQ(warm.network.flow(e), fresh.network.flow(e))
          << "files=" << sh.files << " edge " << e;
    warm.network.reset_flow();
    EXPECT_EQ(value, oracle::edmonds_karp(warm.network, 0, 1)) << "files=" << sh.files;
  }
}

TEST(FlowWorkspace, ReuseAcrossSolvesReproducesValues) {
  // One workspace, many networks: a rebuild between solves must give the
  // same values as fresh networks.
  FlowWorkspace ws;
  for (int round = 0; round < 2; ++round) {
    ws.network.build(4, [](Builder& edges) {
      edges.add_edge(0, 1, 5);
      edges.add_edge(1, 3, 4);
      edges.add_edge(0, 2, 3);
      edges.add_edge(2, 3, 6);
    });
    EXPECT_EQ(max_flow(ws, 0, 3), 7);

    ws.network.build(3, [](Builder& edges) {
      edges.add_edge(0, 1, 10);
      edges.add_edge(1, 2, 3);
    });
    EXPECT_EQ(max_flow(ws, 0, 2), 3);
  }
}

}  // namespace
}  // namespace opass::graph
