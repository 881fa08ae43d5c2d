#include "graph/max_flow.hpp"

#include <algorithm>
#include <limits>

namespace opass::graph {

namespace {

constexpr Cap kInf = std::numeric_limits<Cap>::max();

/// Dinic level graph: BFS from s over positive-residual arcs, stopping as
/// soon as t is labelled. Returns true iff t is reachable.
bool build_levels(FlowNetwork& net, NodeIdx s, NodeIdx t, FlowWorkspace& ws) {
  ws.level.assign(net.node_count(), -1);
  ws.queue.resize(net.node_count());  // each node enters at most once
  std::size_t tail = 0;
  ws.queue[tail++] = s;
  ws.level[s] = 0;
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeIdx u = ws.queue[head];
    const std::int32_t next = ws.level[u] + 1;
    for (ArcIdx a : net.residual_adjacency(u)) {
      if (net.residual_capacity(a) <= 0) continue;
      const NodeIdx v = net.residual_to(a);
      if (ws.level[v] >= 0) continue;
      ws.level[v] = next;
      if (v == t) return true;
      ws.queue[tail++] = v;
    }
  }
  return false;
}

/// One blocking flow over the current level graph, as an iterative DFS with
/// the current-arc optimization: arc[u] persists across augmenting paths so
/// every arc is inspected at most once per phase, and the explicit path
/// stack keeps deep networks off the call stack.
Cap blocking_flow(FlowNetwork& net, NodeIdx s, NodeIdx t, FlowWorkspace& ws) {
  Cap total = 0;
  ws.path.clear();
  NodeIdx u = s;
  for (;;) {
    if (u == t) {
      Cap bottleneck = kInf;
      for (ArcIdx a : ws.path) bottleneck = std::min(bottleneck, net.residual_capacity(a));
      for (ArcIdx a : ws.path) net.push(a, bottleneck);
      total += bottleneck;
      // Retreat to the tail of the first saturated arc; the saturated arc
      // is skipped by the advance scan below on the next iteration.
      std::size_t i = 0;
      while (i < ws.path.size() && net.residual_capacity(ws.path[i]) > 0) ++i;
      OPASS_CHECK(i < ws.path.size(), "augmenting path saturated no edge");
      u = net.residual_to(net.partner(ws.path[i]));
      ws.path.resize(i);
      continue;
    }
    // Scan u's arcs from its current arc for an admissible one; the cursor
    // stays on the arc taken.
    const auto adj = net.residual_adjacency(u);
    const std::int32_t next = ws.level[u] + 1;
    std::uint32_t i = ws.arc[u];
    while (i < adj.size() &&
           (net.residual_capacity(adj[i]) <= 0 || ws.level[net.residual_to(adj[i])] != next))
      ++i;
    ws.arc[u] = i;
    if (i < adj.size()) {
      ws.path.push_back(adj[i]);
      u = net.residual_to(adj[i]);
      continue;
    }
    if (u == s) break;  // blocking flow complete
    ws.level[u] = -1;   // dead end: prune u from this phase
    const ArcIdx back = ws.path.back();
    ws.path.pop_back();
    u = net.residual_to(net.partner(back));
    ++ws.arc[u];  // the arc into the dead end is spent
  }
  return total;
}

}  // namespace

Cap max_flow(FlowWorkspace& workspace, NodeIdx s, NodeIdx t) {
  FlowNetwork& net = workspace.network;
  OPASS_REQUIRE(s < net.node_count() && t < net.node_count(), "s/t out of range");
  OPASS_REQUIRE(s != t, "source and sink must differ");
  Cap total = 0;
  while (build_levels(net, s, t, workspace)) {
    workspace.arc.assign(net.node_count(), 0);
    total += blocking_flow(net, s, t, workspace);
  }
  return total;
}

}  // namespace opass::graph
