#include "opass/single_data.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "opass/fig5.hpp"
#include "opass/process_index.hpp"

namespace opass::core {

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

  // Fig. 5 with unit capacities, edges task-major in replica order, built
  // into the (possibly caller-provided) workspace.
  graph::FlowWorkspace local_ws;
  graph::FlowWorkspace& ws = options.workspace ? *options.workspace : local_ws;
  std::vector<std::uint32_t> owner = solve_fig5(
      ws, std::vector<graph::Cap>(quotas.begin(), quotas.end()), n, [&](const Fig5Edges& edge) {
        for (std::uint32_t ti = 0; ti < n; ++ti)
          for (dfs::NodeId rep : nn.chunk(tasks[ti].inputs[0]).replicas)
            for (std::uint32_t p : procs_on_node.row(rep)) edge(p, ti);
      });

  SingleDataPlan plan;
  plan.locally_matched =
      static_cast<std::uint32_t>(n - std::count(owner.begin(), owner.end(), kNoOwner));
  plan.randomly_filled = static_cast<std::uint32_t>(random_fill(owner, quotas, rng).size());
  plan.full_matching = plan.randomly_filled == 0 && n > 0;
  plan.assignment = group_by_owner(owner, m);
  return plan;
}

}  // namespace opass::core
