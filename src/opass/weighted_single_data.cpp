// Byte-weighted single-data assignment — the Fig. 5 network with byte
// capacities, as the paper prints it.
//
// assign_single_data() uses unit (task-count) capacities, which matches the
// paper's experiments because every chunk file there is the same size. When
// file sizes vary (e.g. a VTK series with mixed-resolution time steps),
// equalizing task *counts* leaves processes with unequal *bytes*. This
// variant equalizes bytes:
//
//   s --(ceil(TotalSize/m))--> p_i --(size_j)--> f_j --(size_j)--> t
//
// An integral max-flow on byte capacities may split a file's flow between
// two co-located processes; since a task is indivisible, each task is
// assigned to the co-located process carrying the most of its flow, and
// tasks that received no flow are filled onto the least-loaded (by bytes)
// processes. The result keeps the max-flow's locality while bounding the
// per-process byte overload by one file size.
#include <algorithm>

#include "common/require.hpp"
#include "opass/fig5.hpp"
#include "opass/matchers.hpp"

namespace opass::core {

PlanResult assign_single_data_weighted(const dfs::NameNode& nn,
                                       const std::vector<runtime::Task>& tasks,
                                       const ProcessPlacement& placement, Rng& rng,
                                       graph::FlowWorkspace* workspace) {
  const auto m = static_cast<std::uint32_t>(placement.size());
  const auto n = static_cast<std::uint32_t>(tasks.size());
  OPASS_REQUIRE(m > 0, "need at least one process");
  for (const auto& t : tasks)
    OPASS_REQUIRE(t.inputs.size() == 1, "single-data tasks must have exactly one input");

  PlanResult plan;
  plan.assignment.assign(m, {});
  if (n == 0) return plan;

  std::vector<Bytes> size(n);
  Bytes total_bytes = 0;
  for (std::uint32_t ti = 0; ti < n; ++ti) {
    size[ti] = nn.chunk(tasks[ti].inputs[0]).size;
    total_bytes += size[ti];
  }
  const Bytes quota = total_bytes / m + (total_bytes % m ? 1 : 0);

  // Processes per node, so locality edges are found from replica lists in
  // O(n * r) instead of all m * n pairs (same scheme as assign_single_data).
  const Adjacency procs_on_node = processes_by_node(nn, placement);

  // Fig. 5 with byte capacities, edges task-major in replica order, built
  // into the reusable workspace. Each task goes to the co-located process
  // carrying the most of its flow.
  graph::FlowWorkspace local_ws;
  graph::FlowWorkspace& ws = workspace ? *workspace : local_ws;
  std::vector<std::uint32_t> owner = solve_fig5(
      ws, std::vector<graph::Cap>(m, static_cast<graph::Cap>(quota)), n,
      [&](const Fig5Edges& edge) {
        for (std::uint32_t ti = 0; ti < n; ++ti)
          for (dfs::NodeId rep : nn.chunk(tasks[ti].inputs[0]).replicas)
            for (std::uint32_t p : procs_on_node.row(rep)) edge(p, ti);
      },
      std::vector<graph::Cap>(size.begin(), size.end()));

  std::vector<Bytes> load(m, 0);
  for (std::uint32_t ti = 0; ti < n; ++ti) {
    if (owner[ti] == kNoOwner) continue;
    load[owner[ti]] += size[ti];
    plan.matched_bytes += size[ti];
    ++plan.locally_matched;
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
    if (owner[ti] != kNoOwner) continue;
    std::uint32_t lightest = 0;
    for (std::uint32_t p = 1; p < m; ++p)
      if (load[p] < load[lightest]) lightest = p;
    owner[ti] = lightest;
    load[lightest] += size[ti];
    ++plan.randomly_filled;
  }

  plan.assignment = group_by_owner(owner, m);
  return plan;
}

}  // namespace opass::core
