// Opass for parallel single-data access (paper Section IV-B, Fig. 5).
//
// Each task reads exactly one chunk and every process must end up with an
// equal share of the work. The assignment is encoded as a flow network:
//
//   s --(quota_i)--> p_i --(1)--> f_j --(1)--> t
//
// with a p_i -> f_j edge whenever f_j has a replica co-located with p_i.
// Capacities are in *task units*: the paper's byte capacities (TotalSize/m,
// file size) reduce to unit capacities because every task is one chunk file
// and quotas are an equal number of tasks; unit capacities also guarantee
// that an integral max-flow never splits a task between processes.
//
// The max-flow (Dinic; the paper uses Ford–Fulkerson, and any maximum-flow
// solver gives the same value) yields the maximum number of locally served
// tasks. When the layout is too skewed for a full matching,
// the unmatched tasks are distributed randomly over processes with remaining
// quota, exactly as Section IV-B prescribes. Quotas are equal_quotas()
// (opass/fig5.hpp): n/m tasks per process, the first n%m taking one extra.
#include <algorithm>

#include "common/require.hpp"
#include "opass/fig5.hpp"
#include "opass/matchers.hpp"

namespace opass::core {

PlanResult assign_single_data(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                              const ProcessPlacement& placement, Rng& rng,
                              graph::FlowWorkspace* workspace) {
  const auto m = static_cast<std::uint32_t>(placement.size());
  const auto n = static_cast<std::uint32_t>(tasks.size());
  OPASS_REQUIRE(m > 0, "need at least one process");
  for (const auto& t : tasks)
    OPASS_REQUIRE(t.inputs.size() == 1, "single-data tasks must have exactly one input");

  const auto quotas = equal_quotas(n, m);

  // Processes hosted on each node, so locality edges are discovered from the
  // replica lists in O(n * r) instead of scanning all m * n pairs.
  const Adjacency procs_on_node = processes_by_node(nn, placement);

  // Fig. 5 with unit capacities, edges task-major in replica order, built
  // into the (possibly caller-provided) workspace.
  graph::FlowWorkspace local_ws;
  graph::FlowWorkspace& ws = workspace ? *workspace : local_ws;
  std::vector<std::uint32_t> owner = solve_fig5(
      ws, std::vector<graph::Cap>(quotas.begin(), quotas.end()), n, [&](const Fig5Edges& edge) {
        for (std::uint32_t ti = 0; ti < n; ++ti)
          for (dfs::NodeId rep : nn.chunk(tasks[ti].inputs[0]).replicas)
            for (std::uint32_t p : procs_on_node.row(rep)) edge(p, ti);
      });

  PlanResult plan;
  plan.locally_matched =
      static_cast<std::uint32_t>(n - std::count(owner.begin(), owner.end(), kNoOwner));
  plan.randomly_filled = static_cast<std::uint32_t>(random_fill(owner, quotas, rng).size());
  plan.assignment = group_by_owner(owner, m);
  return plan;
}

}  // namespace opass::core
