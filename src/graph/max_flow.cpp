#include "graph/max_flow.hpp"

#include <algorithm>
#include <limits>

#include "common/thread_pool.hpp"

namespace opass::graph {

namespace {

constexpr Cap kInf = std::numeric_limits<Cap>::max();

void check_terminals(const FlowNetwork& net, NodeIdx s, NodeIdx t) {
  OPASS_REQUIRE(s < net.node_count() && t < net.node_count(), "s/t out of range");
  OPASS_REQUIRE(s != t, "source and sink must differ");
}

/// Dinic level graph: BFS from s over positive-residual edges. Returns true
/// iff t is reachable.
bool build_levels(FlowNetwork& net, NodeIdx s, NodeIdx t, FlowWorkspace& ws) {
  ws.level.assign(net.node_count(), -1);
  ws.queue.clear();
  ws.queue.push_back(s);
  ws.level[s] = 0;
  for (std::size_t head = 0; head < ws.queue.size(); ++head) {
    const NodeIdx u = ws.queue[head];
    for (EdgeIdx h : net.residual_adjacency(u)) {
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
/// path stack keeps deep networks off the call stack. The DFS leaves s only
/// through `s_arcs[s_cursor .. s_end)`, advancing `s_cursor` as s's current
/// arc: the serial solver passes all of s's adjacency with arc[s], and the
/// pooled one each component's own slice of it. Every other node the DFS
/// touches is reached from that slice, so concurrent slices whose nodes are
/// disjoint never share a level, arc or residual write.
Cap blocking_flow(FlowNetwork& net, NodeIdx s, NodeIdx t, FlowWorkspace& ws,
                  const EdgeIdx* s_arcs, std::uint32_t s_end, std::uint32_t& s_cursor,
                  std::vector<EdgeIdx>& path) {
  Cap total = 0;
  path.clear();
  NodeIdx u = s;
  for (;;) {
    if (u == t) {
      Cap bottleneck = kInf;
      for (EdgeIdx h : path) bottleneck = std::min(bottleneck, net.residual_capacity(h));
      for (EdgeIdx h : path) net.push(h, bottleneck);
      total += bottleneck;
      // Retreat to the tail of the first saturated edge; the saturated arc
      // is skipped by the advance scan below on the next iteration.
      std::size_t i = 0;
      while (i < path.size() && net.residual_capacity(path[i]) > 0) ++i;
      OPASS_CHECK(i < path.size(), "augmenting path saturated no edge");
      u = net.residual_to(path[i] ^ 1);
      path.resize(i);
      continue;
    }
    bool advanced = false;
    if (u == s) {
      while (s_cursor < s_end) {
        const EdgeIdx h = s_arcs[s_cursor];
        const NodeIdx v = net.residual_to(h);
        if (net.residual_capacity(h) > 0 && ws.level[v] == ws.level[s] + 1) {
          path.push_back(h);
          u = v;
          advanced = true;
          break;
        }
        ++s_cursor;
      }
      if (!advanced) break;  // blocking flow complete
      continue;
    }
    const auto adj = net.residual_adjacency(u);
    while (ws.arc[u] < adj.size()) {
      const EdgeIdx h = adj[ws.arc[u]];
      const NodeIdx v = net.residual_to(h);
      if (net.residual_capacity(h) > 0 && ws.level[v] == ws.level[u] + 1) {
        path.push_back(h);
        u = v;
        advanced = true;
        break;
      }
      ++ws.arc[u];
    }
    if (advanced) continue;
    ws.level[u] = -1;  // dead end: prune u from this phase
    const EdgeIdx back = path.back();
    path.pop_back();
    u = net.residual_to(back ^ 1);
    if (u == s) {
      ++s_cursor;  // the arc into the dead end is spent
    } else {
      ++ws.arc[u];
    }
  }
  return total;
}

Cap run_dinic(FlowNetwork& net, NodeIdx s, NodeIdx t, FlowWorkspace& ws) {
  const auto s_adj = net.residual_adjacency(s);
  const auto s_end = static_cast<std::uint32_t>(s_adj.size());
  Cap total = 0;
  while (build_levels(net, s, t, ws)) {
    ws.arc.assign(net.node_count(), 0);
    total += blocking_flow(net, s, t, ws, s_adj.begin(), s_end, ws.arc[s], ws.path);
  }
  return total;
}

constexpr std::uint32_t kNoComp = 0xffffffffu;

/// Label the connected components of the network minus {s, t}: nodes joined
/// by an edge not incident to s or t share a label. On the Fig. 5 network
/// this groups processes with the tasks (source files) they can reach —
/// exactly the independent subproblems the assignment decomposes into.
/// Labels are assigned by ascending node id (deterministic). Returns the
/// component count.
std::uint32_t label_components(const FlowNetwork& net, NodeIdx s, NodeIdx t,
                               FlowWorkspace& ws) {
  const NodeIdx n = net.node_count();
  ws.comp.assign(n, kNoComp);
  ws.queue.clear();
  std::uint32_t comp_count = 0;
  for (NodeIdx start = 0; start < n; ++start) {
    if (start == s || start == t || ws.comp[start] != kNoComp) continue;
    const std::uint32_t c = comp_count++;
    ws.comp[start] = c;
    ws.queue.clear();
    ws.queue.push_back(start);
    for (std::size_t head = 0; head < ws.queue.size(); ++head) {
      const NodeIdx u = ws.queue[head];
      for (EdgeIdx h : net.residual_adjacency(u)) {
        const NodeIdx v = net.residual_to(h);
        if (v == s || v == t || ws.comp[v] != kNoComp) continue;
        ws.comp[v] = c;
        ws.queue.push_back(v);
      }
    }
  }
  return comp_count;
}

/// Dinic with per-component parallel blocking flows. Byte-exactness against
/// run_dinic(), phase by phase:
///
///  1. The level BFS is the serial one, over the whole residual graph.
///  2. Within a phase, the serial DFS's behavior restricted to one component
///     depends only on that component's state: its slice of arc[s] (visited
///     in s-adjacency order, each arc at most once per phase), its own
///     nodes' levels/arcs, and its own edges' residuals. t is shared but the
///     DFS never advances out of t, never prunes it, and never reads arc[t];
///     reverse edges into s are level-inadmissible (level[s] = 0). So
///     running components in any order — or concurrently — produces the
///     same per-edge flows as the serial interleaving.
///  3. Therefore the residual graph after each phase is identical to the
///     serial one, the next BFS sees the same graph (induction), and the
///     phase count and final flows match exactly. Flow values are integers
///     (Cap), so summing per-component totals is order-insensitive.
Cap run_dinic_parallel(FlowNetwork& net, NodeIdx s, NodeIdx t, FlowWorkspace& ws) {
  const std::uint32_t comp_count = label_components(net, s, t, ws);
  if (comp_count <= 1) return run_dinic(net, s, t, ws);

  // Any direct s->t half-edge belongs to no component; the decomposition
  // cannot carry it, so fall back (no planner network has one).
  for (EdgeIdx h : net.residual_adjacency(s))
    if (net.residual_to(h) == t) return run_dinic(net, s, t, ws);

  // Bucket s's half-edges by head component, preserving adjacency order
  // (counting sort), so each component sees exactly its slice of arc[s].
  const auto s_adj = net.residual_adjacency(s);
  ws.comp_s_offsets.assign(comp_count + 1, 0);
  for (EdgeIdx h : s_adj) ++ws.comp_s_offsets[ws.comp[net.residual_to(h)] + 1];
  for (std::uint32_t c = 0; c < comp_count; ++c)
    ws.comp_s_offsets[c + 1] += ws.comp_s_offsets[c];
  ws.comp_s_arcs.resize(s_adj.size());
  ws.comp_s_cursor.assign(ws.comp_s_offsets.begin(), ws.comp_s_offsets.end() - 1);
  for (EdgeIdx h : s_adj) ws.comp_s_arcs[ws.comp_s_cursor[ws.comp[net.residual_to(h)]]++] = h;

  ThreadPool& pool = *ws.pool;
  if (ws.comp_paths.size() < pool.thread_count()) ws.comp_paths.resize(pool.thread_count());
  ws.comp_total.resize(comp_count);

  Cap total = 0;
  while (build_levels(net, s, t, ws)) {
    ws.arc.assign(net.node_count(), 0);
    ws.comp_s_cursor.assign(ws.comp_s_offsets.begin(), ws.comp_s_offsets.end() - 1);
    pool.parallel_for_chunks(
        comp_count, /*min_per_chunk=*/1,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          std::vector<EdgeIdx>& path = ws.comp_paths[chunk];
          for (std::size_t c = begin; c < end; ++c)
            ws.comp_total[c] =
                blocking_flow(net, s, t, ws, ws.comp_s_arcs.data(), ws.comp_s_offsets[c + 1],
                              ws.comp_s_cursor[c], path);
        });
    for (std::uint32_t c = 0; c < comp_count; ++c) total += ws.comp_total[c];
  }
  return total;
}

}  // namespace

Cap dinic(FlowNetwork& net, NodeIdx s, NodeIdx t) {
  check_terminals(net, s, t);
  FlowWorkspace ws;
  return run_dinic(net, s, t, ws);
}

Cap max_flow(FlowWorkspace& workspace, NodeIdx s, NodeIdx t) {
  check_terminals(workspace.network, s, t);
  if (workspace.pool != nullptr && workspace.pool->thread_count() > 1)
    return run_dinic_parallel(workspace.network, s, t, workspace);
  return run_dinic(workspace.network, s, t, workspace);
}

}  // namespace opass::graph
