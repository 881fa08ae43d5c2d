#include "opass/single_data.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "graph/flow_network.hpp"
#include "opass/process_index.hpp"

namespace opass::core {

std::vector<std::uint32_t> equal_quotas(std::uint32_t task_count, std::uint32_t process_count) {
  OPASS_REQUIRE(process_count > 0, "need at least one process");
  std::vector<std::uint32_t> quotas(process_count, task_count / process_count);
  for (std::uint32_t i = 0; i < task_count % process_count; ++i) ++quotas[i];
  return quotas;
}

SingleDataPlan assign_single_data(const dfs::NameNode& nn,
                                  const std::vector<runtime::Task>& tasks,
                                  const ProcessPlacement& placement, Rng& rng,
                                  SingleDataOptions options) {
  const auto m = static_cast<std::uint32_t>(placement.size());
  const auto n = static_cast<std::uint32_t>(tasks.size());
  OPASS_REQUIRE(m > 0, "need at least one process");
  for (const auto& t : tasks)
    OPASS_REQUIRE(t.inputs.size() == 1, "single-data tasks must have exactly one input");

  const auto quotas = equal_quotas(n, m);

  // Processes hosted on each node, so locality edges are discovered from the
  // replica lists in O(n * r) instead of scanning all m * n pairs.
  const Adjacency procs_on_node = processes_by_node(nn, placement);

  // Build the Fig. 5 network into the (possibly caller-provided) workspace:
  // node 0 = s, node 1 = t, then processes, then tasks. Edge ids are dense in
  // insertion order — s->p edges are [0, m), p->task edges [m, m + k), task->t
  // edges [m + k, m + k + n) — so flows are read back without an id map.
  graph::FlowWorkspace local_ws;
  graph::FlowWorkspace& ws = options.workspace ? *options.workspace : local_ws;
  graph::FlowNetwork& net = ws.network;
  net.clear(2 + m + n);
  const graph::NodeIdx s = 0;
  const graph::NodeIdx t = 1;
  const graph::NodeIdx proc0 = 2;
  const graph::NodeIdx task0 = 2 + m;

  for (std::uint32_t p = 0; p < m; ++p) net.add_edge(s, proc0 + p, quotas[p]);
  for (std::uint32_t ti = 0; ti < n; ++ti) {
    for (dfs::NodeId rep : nn.chunk(tasks[ti].inputs[0]).replicas) {
      for (std::uint32_t p : procs_on_node.row(rep)) net.add_edge(proc0 + p, task0 + ti, 1);
    }
  }
  const auto pt_count = static_cast<std::uint32_t>(net.edge_count()) - m;
  for (std::uint32_t ti = 0; ti < n; ++ti) net.add_edge(task0 + ti, t, 1);

  const graph::Cap flow = graph::max_flow(ws, s, t);
  OPASS_CHECK(flow >= 0 && flow <= n, "max-flow value out of range");

  SingleDataPlan plan;
  plan.assignment.assign(m, {});
  std::vector<char> task_assigned(n, 0);
  std::vector<std::uint32_t> used(m, 0);
  for (graph::EdgeIdx e = m; e < m + pt_count; ++e) {
    if (net.flow(e) == 1) {
      const std::uint32_t p = net.edge_from(e) - proc0;
      const std::uint32_t ti = net.edge_to(e) - task0;
      plan.assignment[p].push_back(ti);
      task_assigned[ti] = 1;
      ++used[p];
      ++plan.locally_matched;
    }
  }
  OPASS_CHECK(plan.locally_matched == static_cast<std::uint32_t>(flow),
              "flow value disagrees with matched edges");

  // Random fill: unmatched tasks go to randomly chosen processes with
  // remaining quota ("we randomly assign unmatched tasks to each such
  // process until all processes are matched to TotalSize/m of data").
  std::vector<runtime::TaskId> unmatched;
  for (std::uint32_t ti = 0; ti < n; ++ti)
    if (!task_assigned[ti]) unmatched.push_back(ti);
  rng.shuffle(unmatched);

  std::vector<std::uint32_t> open;  // processes below quota
  for (std::uint32_t p = 0; p < m; ++p)
    if (used[p] < quotas[p]) open.push_back(p);

  for (runtime::TaskId ti : unmatched) {
    OPASS_CHECK(!open.empty(), "no process has remaining quota for fill");
    const auto pick = rng.uniform(open.size());
    const std::uint32_t p = open[pick];
    plan.assignment[p].push_back(ti);
    ++used[p];
    ++plan.randomly_filled;
    if (used[p] == quotas[p]) {
      open[pick] = open.back();
      open.pop_back();
    }
  }

  plan.full_matching = plan.randomly_filled == 0 && n > 0;

  // Keep each process's reads in task order for reproducible traces.
  for (auto& list : plan.assignment) std::sort(list.begin(), list.end());
  return plan;
}

}  // namespace opass::core
