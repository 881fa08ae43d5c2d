// Edge-for-edge parity of graph::max_flow with the reference Dinic
// (tests/support/reference_dinic.hpp): the BFS that stops at t and the
// CSR-ordered arcs may skip work, never change an augmenting path, so every
// edge must carry the reference's flow, on general random networks, on unit
// bipartite networks and on the planning service's four-layer network with
// its post-solve top-up edges.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/max_flow.hpp"
#include "support/reference_dinic.hpp"

namespace opass::graph {
namespace {

/// Two copies of one network: `fast` solved by graph::max_flow, `reference`
/// by the reference Dinic.
struct Pair {
  FlowWorkspace fast;
  FlowNetwork reference;

  void clear(NodeIdx nodes) {
    fast.network.clear(nodes);
    reference.clear(nodes);
  }
  void add_edge(NodeIdx u, NodeIdx v, Cap capacity) {
    fast.network.add_edge(u, v, capacity);
    reference.add_edge(u, v, capacity);
  }
  /// Solve both from s = 0 to t and require equal values and edge flows.
  void solve_and_compare(NodeIdx t, const std::string& what) {
    const Cap value = max_flow(fast, 0, t);
    EXPECT_EQ(value, oracle::reference_dinic(reference, 0, t)) << what;
    ASSERT_EQ(fast.network.edge_count(), reference.edge_count()) << what;
    for (EdgeIdx e = 0; e < reference.edge_count(); ++e)
      ASSERT_EQ(fast.network.flow(e), reference.flow(e)) << what << " edge " << e;
  }
};

TEST(DinicParity, RandomNetworksMatchEdgeForEdge) {
  Pair pair;  // one warm workspace across every network
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    Rng rng(seed);
    const auto nodes = static_cast<NodeIdx>(4 + rng.uniform(37));
    pair.clear(nodes);
    const auto edges = static_cast<std::uint32_t>(nodes * (2 + rng.uniform(4)));
    for (std::uint32_t i = 0; i < edges; ++i) {
      const auto u = static_cast<NodeIdx>(rng.uniform(nodes));
      const auto v = static_cast<NodeIdx>(rng.uniform(nodes));
      pair.add_edge(u, v, static_cast<Cap>(rng.uniform(20)));  // self-loops and 0 included
    }
    pair.solve_and_compare(nodes - 1, "seed " + std::to_string(seed));
  }
}

TEST(DinicParity, UnitBipartiteNetworksMatchEdgeForEdge) {
  Pair pair;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed + 1000);
    const auto left = static_cast<NodeIdx>(2 + rng.uniform(60));
    const auto right = static_cast<NodeIdx>(2 + rng.uniform(60));
    const NodeIdx t = 1 + left + right;
    pair.clear(t + 1);
    for (NodeIdx l = 0; l < left; ++l) pair.add_edge(0, 1 + l, 1);
    const auto edges = static_cast<std::uint32_t>(left * (1 + rng.uniform(4)));
    for (std::uint32_t i = 0; i < edges; ++i)
      pair.add_edge(1 + static_cast<NodeIdx>(rng.uniform(left)),
                    1 + left + static_cast<NodeIdx>(rng.uniform(right)), 1);
    for (NodeIdx r = 0; r < right; ++r) pair.add_edge(1 + left + r, t, 1);
    pair.solve_and_compare(t, "seed " + std::to_string(seed));
  }
}

TEST(DinicParity, ServiceNetworkWithTopUpMatchesEdgeForEdge) {
  // s -> tenant -> task -> process -> t, solved under capped tenant edges,
  // then topped up with extra s -> tenant edges and solved again from the
  // flow the first solve left, as PlannerService's fair-share pass does.
  Pair pair;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed + 2000);
    const auto tenants = static_cast<NodeIdx>(1 + rng.uniform(4));
    const auto tasks = static_cast<NodeIdx>(10 + rng.uniform(120));
    const auto procs = static_cast<NodeIdx>(2 + rng.uniform(24));
    const NodeIdx t = 1, tenant0 = 2, task0 = tenant0 + tenants, proc0 = task0 + tasks;
    pair.clear(proc0 + procs);
    std::vector<NodeIdx> tenant_of(tasks);
    std::vector<Cap> demand(tenants, 0);
    for (NodeIdx k = 0; k < tasks; ++k) {
      tenant_of[k] = static_cast<NodeIdx>(rng.uniform(tenants));
      ++demand[tenant_of[k]];
    }
    std::vector<Cap> fair(tenants);
    for (NodeIdx i = 0; i < tenants; ++i) {
      fair[i] = static_cast<Cap>(rng.uniform(static_cast<std::uint64_t>(demand[i]) + 1));
      pair.add_edge(0, tenant0 + i, fair[i]);
    }
    for (NodeIdx k = 0; k < tasks; ++k) pair.add_edge(tenant0 + tenant_of[k], task0 + k, 1);
    for (NodeIdx k = 0; k < tasks; ++k) {
      const auto holders = rng.uniform(4);
      for (std::uint64_t h = 0; h < holders; ++h)
        pair.add_edge(task0 + k, proc0 + static_cast<NodeIdx>(rng.uniform(procs)), 1);
    }
    for (NodeIdx p = 0; p < procs; ++p)
      pair.add_edge(proc0 + p, t, static_cast<Cap>(tasks / procs + rng.uniform(2)));
    const std::string what = "seed " + std::to_string(seed);
    pair.solve_and_compare(t, what + " capped");
    for (NodeIdx i = 0; i < tenants; ++i)
      if (demand[i] > fair[i]) pair.add_edge(0, tenant0 + i, demand[i] - fair[i]);
    pair.solve_and_compare(t, what + " topped up");
  }
}

}  // namespace
}  // namespace opass::graph
