#include "opass/weighted_single_data.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "graph/flow_network.hpp"
#include "opass/process_index.hpp"

namespace opass::core {

WeightedPlan assign_single_data_weighted(const dfs::NameNode& nn,
                                         const std::vector<runtime::Task>& tasks,
                                         const ProcessPlacement& placement, Rng& rng,
                                         WeightedOptions options) {
  const auto m = static_cast<std::uint32_t>(placement.size());
  const auto n = static_cast<std::uint32_t>(tasks.size());
  OPASS_REQUIRE(m > 0, "need at least one process");
  for (const auto& t : tasks)
    OPASS_REQUIRE(t.inputs.size() == 1, "single-data tasks must have exactly one input");

  WeightedPlan plan;
  plan.assignment.assign(m, {});
  if (n == 0) return plan;

  std::vector<Bytes> size(n);
  for (std::uint32_t ti = 0; ti < n; ++ti) {
    size[ti] = nn.chunk(tasks[ti].inputs[0]).size;
    plan.total_bytes += size[ti];
  }
  const Bytes quota = plan.total_bytes / m + (plan.total_bytes % m ? 1 : 0);

  // Processes per node, so locality edges are found from replica lists in
  // O(n * r) instead of all m * n pairs (same scheme as assign_single_data).
  const Adjacency procs_on_node = processes_by_node(nn, placement);

  // Fig. 5 with byte capacities, built into the reusable workspace. Edge ids
  // are dense in insertion order: s->p edges [0, m), p->task edges
  // [m, m + k), task->t edges afterwards.
  graph::FlowWorkspace local_ws;
  graph::FlowWorkspace& ws = options.workspace ? *options.workspace : local_ws;
  graph::FlowNetwork& net = ws.network;
  net.clear(2 + m + n);
  const graph::NodeIdx s = 0;
  const graph::NodeIdx t = 1;
  const graph::NodeIdx proc0 = 2;
  const graph::NodeIdx task0 = 2 + m;
  for (std::uint32_t p = 0; p < m; ++p)
    net.add_edge(s, proc0 + p, static_cast<graph::Cap>(quota));

  for (std::uint32_t ti = 0; ti < n; ++ti) {
    for (dfs::NodeId rep : nn.chunk(tasks[ti].inputs[0]).replicas) {
      for (std::uint32_t p : procs_on_node.row(rep))
        net.add_edge(proc0 + p, task0 + ti, static_cast<graph::Cap>(size[ti]));
    }
  }
  const auto pt_count = static_cast<std::uint32_t>(net.edge_count()) - m;
  for (std::uint32_t ti = 0; ti < n; ++ti)
    net.add_edge(task0 + ti, t, static_cast<graph::Cap>(size[ti]));

  graph::max_flow(ws, s, t);

  // Task -> co-located process carrying the most of its flow.
  std::vector<std::uint32_t> owner(n, UINT32_MAX);
  std::vector<graph::Cap> best_flow(n, 0);
  for (graph::EdgeIdx e = m; e < m + pt_count; ++e) {
    const graph::Cap f = net.flow(e);
    if (f <= 0) continue;
    const std::uint32_t p = net.edge_from(e) - proc0;
    const std::uint32_t ti = net.edge_to(e) - task0;
    if (f > best_flow[ti] || (f == best_flow[ti] && owner[ti] != UINT32_MAX && p < owner[ti])) {
      best_flow[ti] = f;
      owner[ti] = p;
    }
  }

  std::vector<Bytes> load(m, 0);
  for (std::uint32_t ti = 0; ti < n; ++ti) {
    if (owner[ti] == UINT32_MAX) continue;
    plan.assignment[owner[ti]].push_back(ti);
    load[owner[ti]] += size[ti];
    plan.local_bytes += size[ti];
    ++plan.flow_assigned;
  }

  // Balance fill: tasks with no flow go to the lightest process, largest
  // task first (LPT — the classic makespan heuristic); the shuffle before
  // the stable sort randomizes ties between equal-sized tasks.
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t ti = 0; ti < n; ++ti) order[ti] = ti;
  rng.shuffle(order);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return size[a] > size[b]; });
  for (std::uint32_t ti : order) {
    if (owner[ti] != UINT32_MAX) continue;
    std::uint32_t lightest = 0;
    for (std::uint32_t p = 1; p < m; ++p)
      if (load[p] < load[lightest]) lightest = p;
    plan.assignment[lightest].push_back(ti);
    load[lightest] += size[ti];
    ++plan.fill_assigned;
  }

  plan.max_process_bytes = *std::max_element(load.begin(), load.end());
  plan.min_process_bytes = *std::min_element(load.begin(), load.end());
  for (auto& list : plan.assignment) std::sort(list.begin(), list.end());
  return plan;
}

}  // namespace opass::core
