// Edge-for-edge parity of graph::max_flow with the reference Dinic
// (tests/support/reference_dinic.hpp): the BFS that stops at t and the
// CSR-ordered arcs may skip work, never change an augmenting path, so every
// edge must carry the reference's flow, on general random networks, on unit
// bipartite networks and on the planning service's four-layer network with
// its top-up edges, built at zero capacity and raised after the first solve.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/max_flow.hpp"
#include "support/edge_list.hpp"
#include "support/reference_dinic.hpp"

namespace opass::graph {
namespace {

/// Two copies of one network: `fast` solved by graph::max_flow, `reference`
/// by the reference Dinic.
struct Pair {
  FlowWorkspace fast;
  FlowNetwork reference;

  void build(NodeIdx nodes, const support::EdgeList& edges) {
    edges.build(fast.network, nodes);
    edges.build(reference, nodes);
  }
  void add_capacity(EdgeIdx e, Cap extra) {
    fast.network.add_capacity(e, extra);
    reference.add_capacity(e, extra);
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
    support::EdgeList edges;
    const auto edge_count = static_cast<std::uint32_t>(nodes * (2 + rng.uniform(4)));
    for (std::uint32_t i = 0; i < edge_count; ++i) {
      const auto u = static_cast<NodeIdx>(rng.uniform(nodes));
      const auto v = static_cast<NodeIdx>(rng.uniform(nodes));
      edges.add(u, v, static_cast<Cap>(rng.uniform(20)));  // self-loops and 0 included
    }
    pair.build(nodes, edges);
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
    support::EdgeList edges;
    for (NodeIdx l = 0; l < left; ++l) edges.add(0, 1 + l, 1);
    const auto edge_count = static_cast<std::uint32_t>(left * (1 + rng.uniform(4)));
    for (std::uint32_t i = 0; i < edge_count; ++i)
      edges.add(1 + static_cast<NodeIdx>(rng.uniform(left)),
                1 + left + static_cast<NodeIdx>(rng.uniform(right)), 1);
    for (NodeIdx r = 0; r < right; ++r) edges.add(1 + left + r, t, 1);
    pair.build(t + 1, edges);
    pair.solve_and_compare(t, "seed " + std::to_string(seed));
  }
}

TEST(DinicParity, ServiceNetworkWithTopUpMatchesEdgeForEdge) {
  // s -> tenant -> task -> process -> t as PlannerService's fair-share pass
  // builds it: capped s -> tenant edges, and after every other edge a
  // zero-capacity top-up s -> tenant edge for each tenant whose demand
  // exceeds its cap. Solved under the caps, then with the top-ups raised
  // and solved again from the flow the first solve left. The capped solve
  // must also route the flows it routes on the network without top-ups.
  Pair pair;
  FlowWorkspace without_top_ups;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed + 2000);
    const auto tenants = static_cast<NodeIdx>(1 + rng.uniform(4));
    const auto tasks = static_cast<NodeIdx>(10 + rng.uniform(120));
    const auto procs = static_cast<NodeIdx>(2 + rng.uniform(24));
    const NodeIdx t = 1, tenant0 = 2, task0 = tenant0 + tenants, proc0 = task0 + tasks;
    support::EdgeList edges;
    std::vector<NodeIdx> tenant_of(tasks);
    std::vector<Cap> demand(tenants, 0);
    for (NodeIdx k = 0; k < tasks; ++k) {
      tenant_of[k] = static_cast<NodeIdx>(rng.uniform(tenants));
      ++demand[tenant_of[k]];
    }
    std::vector<Cap> fair(tenants);
    for (NodeIdx i = 0; i < tenants; ++i) {
      fair[i] = static_cast<Cap>(rng.uniform(static_cast<std::uint64_t>(demand[i]) + 1));
      edges.add(0, tenant0 + i, fair[i]);
    }
    for (NodeIdx k = 0; k < tasks; ++k) edges.add(tenant0 + tenant_of[k], task0 + k, 1);
    for (NodeIdx k = 0; k < tasks; ++k) {
      const auto holders = rng.uniform(4);
      for (std::uint64_t h = 0; h < holders; ++h)
        edges.add(task0 + k, proc0 + static_cast<NodeIdx>(rng.uniform(procs)), 1);
    }
    for (NodeIdx p = 0; p < procs; ++p)
      edges.add(proc0 + p, t, static_cast<Cap>(tasks / procs + rng.uniform(2)));
    edges.build(without_top_ups.network, proc0 + procs);
    std::vector<std::pair<EdgeIdx, Cap>> top_ups;  // edge, capacity it is raised by
    for (NodeIdx i = 0; i < tenants; ++i)
      if (demand[i] > fair[i])
        top_ups.emplace_back(edges.add(0, tenant0 + i, 0), demand[i] - fair[i]);
    pair.build(proc0 + procs, edges);

    const std::string what = "seed " + std::to_string(seed);
    pair.solve_and_compare(t, what + " capped");
    (void)max_flow(without_top_ups, 0, t);
    for (EdgeIdx e = 0; e < without_top_ups.network.edge_count(); ++e)
      ASSERT_EQ(pair.fast.network.flow(e), without_top_ups.network.flow(e))
          << what << " without top-ups, edge " << e;
    for (const auto& [e, extra] : top_ups) pair.add_capacity(e, extra);
    pair.solve_and_compare(t, what + " topped up");
  }
}

}  // namespace
}  // namespace opass::graph
