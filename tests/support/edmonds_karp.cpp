#include "support/edmonds_karp.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/require.hpp"

namespace opass::oracle {

using graph::Cap;
using graph::ArcIdx;
using graph::NodeIdx;

Cap edmonds_karp(graph::FlowNetwork& net, NodeIdx s, NodeIdx t) {
  const NodeIdx n = net.node_count();
  OPASS_REQUIRE(s < n && t < n, "s/t out of range");
  OPASS_REQUIRE(s != t, "source and sink must differ");
  std::vector<std::int32_t> level;
  std::vector<ArcIdx> parent;
  std::vector<NodeIdx> queue;
  Cap total = 0;
  for (;;) {
    // BFS for the shortest augmenting path in the residual graph; the level
    // array doubles as the visited marker.
    level.assign(n, -1);
    parent.assign(n, 0);
    queue.assign(1, s);
    level[s] = 0;
    bool reached = false;
    for (std::size_t head = 0; head < queue.size() && !reached; ++head) {
      const NodeIdx u = queue[head];
      for (ArcIdx h : net.residual_adjacency(u)) {
        if (net.residual_capacity(h) <= 0) continue;
        const NodeIdx v = net.residual_to(h);
        if (level[v] >= 0) continue;
        level[v] = level[u] + 1;
        parent[v] = h;
        if (v == t) {
          reached = true;
          break;
        }
        queue.push_back(v);
      }
    }
    if (!reached) break;

    // Bottleneck along the path, then augment. Pushing along a reverse edge
    // is the paper's "cancellation policy": it un-assigns a task from one
    // process and re-assigns it to another.
    Cap bottleneck = std::numeric_limits<Cap>::max();
    for (NodeIdx v = t; v != s;) {
      const ArcIdx h = parent[v];
      bottleneck = std::min(bottleneck, net.residual_capacity(h));
      v = net.residual_to(net.partner(h));
    }
    for (NodeIdx v = t; v != s;) {
      const ArcIdx h = parent[v];
      net.push(h, bottleneck);
      v = net.residual_to(net.partner(h));
    }
    total += bottleneck;
  }
  return total;
}

}  // namespace opass::oracle
