#include "support/reference_dinic.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"
#include "graph/max_flow.hpp"

namespace opass::oracle {

using graph::ArcIdx;
using graph::Cap;
using graph::FlowNetwork;
using graph::FlowWorkspace;
using graph::NodeIdx;

namespace {

constexpr Cap kInf = std::numeric_limits<Cap>::max();

/// Dinic level graph: BFS from s over positive-residual edges. Returns true
/// iff t is reachable.
bool build_levels(FlowNetwork& net, NodeIdx s, NodeIdx t, FlowWorkspace& ws) {
  ws.level.assign(net.node_count(), -1);
  ws.queue.clear();
  ws.queue.push_back(s);
  ws.level[s] = 0;
  for (std::size_t head = 0; head < ws.queue.size(); ++head) {
    const NodeIdx u = ws.queue[head];
    for (ArcIdx h : net.residual_adjacency(u)) {
      if (net.residual_capacity(h) <= 0) continue;
      const NodeIdx v = net.residual_to(h);
      if (ws.level[v] >= 0) continue;
      ws.level[v] = ws.level[u] + 1;
      ws.queue.push_back(v);
    }
  }
  return ws.level[t] >= 0;
}

/// One blocking flow over the current level graph, as an iterative DFS with
/// the current-arc optimization: arc[u] persists across augmenting paths so
/// every half-edge is inspected at most once per phase, and the explicit
/// path stack keeps deep networks off the call stack.
Cap blocking_flow(FlowNetwork& net, NodeIdx s, NodeIdx t, FlowWorkspace& ws) {
  Cap total = 0;
  ws.path.clear();
  NodeIdx u = s;
  for (;;) {
    if (u == t) {
      Cap bottleneck = kInf;
      for (ArcIdx h : ws.path) bottleneck = std::min(bottleneck, net.residual_capacity(h));
      for (ArcIdx h : ws.path) net.push(h, bottleneck);
      total += bottleneck;
      // Retreat to the tail of the first saturated edge; the saturated arc
      // is skipped by the advance scan below on the next iteration.
      std::size_t i = 0;
      while (i < ws.path.size() && net.residual_capacity(ws.path[i]) > 0) ++i;
      OPASS_CHECK(i < ws.path.size(), "augmenting path saturated no edge");
      u = net.residual_to(net.partner(ws.path[i]));
      ws.path.resize(i);
      continue;
    }
    bool advanced = false;
    const auto adj = net.residual_adjacency(u);
    while (ws.arc[u] < adj.size()) {
      const ArcIdx h = adj[ws.arc[u]];
      const NodeIdx v = net.residual_to(h);
      if (net.residual_capacity(h) > 0 && ws.level[v] == ws.level[u] + 1) {
        ws.path.push_back(h);
        u = v;
        advanced = true;
        break;
      }
      ++ws.arc[u];
    }
    if (advanced) continue;
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

Cap reference_dinic(FlowNetwork& net, NodeIdx s, NodeIdx t) {
  OPASS_REQUIRE(s < net.node_count() && t < net.node_count(), "s/t out of range");
  OPASS_REQUIRE(s != t, "source and sink must differ");
  FlowWorkspace scratch;  // only the solver arrays; the network is `net`
  Cap total = 0;
  while (build_levels(net, s, t, scratch)) {
    scratch.arc.assign(net.node_count(), 0);
    total += blocking_flow(net, s, t, scratch);
  }
  return total;
}

}  // namespace opass::oracle
