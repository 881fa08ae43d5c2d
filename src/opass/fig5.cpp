#include "opass/fig5.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/require.hpp"
#include "graph/flow_network.hpp"

namespace opass::core {

std::vector<std::uint32_t> equal_quotas(std::uint32_t task_count, std::uint32_t process_count) {
  OPASS_REQUIRE(process_count > 0, "need at least one process");
  std::vector<std::uint32_t> quotas(process_count, task_count / process_count);
  for (std::uint32_t i = 0; i < task_count % process_count; ++i) ++quotas[i];
  return quotas;
}

std::vector<std::uint32_t> solve_fig5(graph::FlowWorkspace& ws,
                                      std::span<const graph::Cap> process_caps,
                                      std::uint32_t task_count,
                                      const std::function<void(const Fig5Edges&)>& emit_edges,
                                      std::span<const graph::Cap> task_caps) {
  OPASS_REQUIRE(task_caps.empty() || task_caps.size() == task_count,
                "need one capacity per task, or none for unit capacities");
  const auto m = static_cast<std::uint32_t>(process_caps.size());
  const std::uint32_t n = task_count;
  const graph::NodeIdx s = 0;
  const graph::NodeIdx t = 1;
  const graph::NodeIdx proc0 = Fig5Edges::kFirstProcess;
  const graph::NodeIdx task0 = proc0 + m;
  graph::FlowNetwork& net = ws.network;
  net.build(task0 + n, [&](graph::FlowNetwork::Builder& builder) {
    for (std::uint32_t p = 0; p < m; ++p) builder.add_edge(s, proc0 + p, process_caps[p]);
    const Fig5Edges edges{builder, m, n, task_caps};
    emit_edges(edges);
    for (std::uint32_t task = 0; task < n; ++task)
      builder.add_edge(task0 + task, t, edges.capacity(task));
  });
  const auto locality_end = static_cast<graph::EdgeIdx>(net.edge_count() - n);
  const graph::Cap task_cap_total =
      task_caps.empty() ? graph::Cap{n}
                        : std::accumulate(task_caps.begin(), task_caps.end(), graph::Cap{0});

  // Dinic's phase 0 on this fresh network has levels s = 0, processes 1,
  // tasks 2 and t = 3, and its blocking flow is a process-major greedy: each
  // process in s's arc order takes its tasks in its own arc order, skipping
  // a task whose task -> t arc has no residual left, and pushes the minimum
  // of the three residuals until its quota is spent. Running that loop on
  // the arcs leaves the residual state phase 0 leaves, so graph::max_flow
  // continues with phase 1 and finds the same flow.
  graph::Cap flow = 0;
  for (std::uint32_t p = 0; p < m; ++p) {
    const graph::ArcIdx quota = net.forward_arc(p);
    for (graph::ArcIdx a : net.residual_adjacency(proc0 + p)) {
      if (net.residual_capacity(quota) <= 0) break;
      const graph::NodeIdx task = net.residual_to(a);  // the row opens with p -> s
      if (task < task0 || net.residual_capacity(a) <= 0) continue;
      const graph::ArcIdx sink = net.forward_arc(locality_end + (task - task0));
      const graph::Cap amount =
          std::min({net.residual_capacity(quota), net.residual_capacity(a),
                    net.residual_capacity(sink)});
      if (amount <= 0) continue;
      net.push(quota, amount);
      net.push(a, amount);
      net.push(sink, amount);
      flow += amount;
    }
  }
  flow += graph::max_flow(ws, s, t);
  OPASS_CHECK(flow >= 0 && flow <= task_cap_total, "max-flow value out of range");

  // Edge ids are dense in insertion order — s->p edges are [0, m), the
  // locality edges [m, locality_end) — so flows read back without an id map.
  // best[task] is the locality edge carrying most of the task's flow, the
  // lowest process winning ties.
  constexpr graph::EdgeIdx kNoEdge = kNoOwner;
  std::vector<graph::EdgeIdx> best(n, kNoEdge);
  graph::Cap read_back = 0;
  for (graph::EdgeIdx e = m; e < locality_end; ++e) {
    const graph::Cap f = net.flow(e);
    if (f <= 0) continue;
    read_back += f;
    graph::EdgeIdx& b = best[net.edge_to(e) - task0];
    if (b == kNoEdge || f > net.flow(b) ||
        (f == net.flow(b) && net.edge_from(e) < net.edge_from(b)))
      b = e;
  }
  OPASS_CHECK(read_back == flow, "flow value disagrees with matched edges");

  // The owner is the best edge's process; edge and process ids are both
  // 32-bit, so the vector is rewritten in place.
  std::vector<std::uint32_t> owner = std::move(best);
  for (std::uint32_t& o : owner)
    if (o != kNoOwner) o = net.edge_from(o) - proc0;
  return owner;
}

std::function<void(const Fig5Edges&)> process_major_edges(const Adjacency& tasks_of) {
  return [&tasks_of](const Fig5Edges& edge) {
    for (std::uint32_t p = 0; p < tasks_of.rows(); ++p)
      for (std::uint32_t task : tasks_of.row(p)) edge(p, task);
  };
}

std::vector<std::uint32_t> random_fill(std::vector<std::uint32_t>& owner,
                                       const std::vector<std::uint32_t>& quotas, Rng& rng) {
  std::vector<std::uint32_t> used(quotas.size(), 0);
  std::vector<std::uint32_t> leftovers;
  for (std::uint32_t task = 0; task < owner.size(); ++task) {
    if (owner[task] == kNoOwner) {
      leftovers.push_back(task);
    } else {
      ++used[owner[task]];
    }
  }
  rng.shuffle(leftovers);

  std::vector<std::uint32_t> open;  // processes below quota
  for (std::uint32_t p = 0; p < quotas.size(); ++p)
    if (used[p] < quotas[p]) open.push_back(p);
  for (std::uint32_t task : leftovers) {
    OPASS_CHECK(!open.empty(), "no process has remaining quota for fill");
    const auto pick = rng.uniform(open.size());
    const std::uint32_t p = open[pick];
    owner[task] = p;
    if (++used[p] == quotas[p]) {
      open[pick] = open.back();
      open.pop_back();
    }
  }
  return leftovers;
}

runtime::Assignment group_by_owner(const std::vector<std::uint32_t>& owner,
                                   std::uint32_t process_count) {
  runtime::Assignment lists(process_count);
  for (std::uint32_t task = 0; task < owner.size(); ++task) {
    OPASS_CHECK(owner[task] < process_count, "task left without an owner");
    lists[owner[task]].push_back(task);
  }
  return lists;
}

}  // namespace opass::core
