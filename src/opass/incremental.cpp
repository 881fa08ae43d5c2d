#include "opass/incremental.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "graph/flow_network.hpp"

namespace opass::core {

IncrementalPlanner::IncrementalPlanner(const dfs::NameNode& nn, ProcessPlacement placement)
    : nn_(nn), placement_(std::move(placement)),
      procs_on_node_(processes_by_node(nn, placement_)), load_(placement_.size(), 0) {
  OPASS_REQUIRE(!placement_.empty(), "need at least one process");
}

BatchPlan IncrementalPlanner::match_batch(const std::vector<runtime::Task>& batch, Rng& rng,
                                          const PlanOptions& options) {
  const auto m = static_cast<std::uint32_t>(placement_.size());
  const auto b = static_cast<std::uint32_t>(batch.size());
  for (const auto& t : batch)
    OPASS_REQUIRE(t.inputs.size() == 1, "single-data tasks must have exactly one input");

  BatchPlan plan;
  plan.assignment.assign(m, {});
  ++batches_;
  if (b == 0) return plan;

  // Batch quotas: repeatedly grant one slot to the least cumulatively loaded
  // process, so cumulative loads stay within one across batches.
  const std::vector<std::uint32_t> quota = least_loaded_quotas(load_, b);

  // Locality edges from the replicas, transposed to per-process task lists:
  // tasks ascending within each process keeps the p-major, ascending-task
  // edge order the flow and the fill depend on.
  std::vector<dfs::ChunkId> chunks(b);
  for (std::uint32_t i = 0; i < b; ++i) chunks[i] = batch[i].inputs[0];
  const Adjacency tasks_of = transpose(replica_holders(nn_, chunks, procs_on_node_), m);

  // Fig. 5 flow over this batch only, with the batch quotas as capacities.
  // The workspace is cleared, not reconstructed, so steady-state batches do
  // no allocation. Edge ids are dense in insertion order: s->p edges [0, m),
  // p->task edges [m, m + k), task->t edges afterwards.
  graph::FlowWorkspace& workspace = options.workspace ? *options.workspace : workspace_;
  graph::FlowNetwork& net = workspace.network;
  net.clear(2 + m + b);
  const graph::NodeIdx s = 0;
  const graph::NodeIdx t = 1;
  const graph::NodeIdx proc0 = 2;
  const graph::NodeIdx task0 = 2 + m;
  for (std::uint32_t p = 0; p < m; ++p)
    net.add_edge(s, proc0 + p, static_cast<graph::Cap>(quota[p]));
  for (std::uint32_t p = 0; p < m; ++p)
    for (std::uint32_t i : tasks_of.row(p)) net.add_edge(proc0 + p, task0 + i, 1);
  const auto pt_count = static_cast<std::uint32_t>(tasks_of.items.size());
  for (std::uint32_t i = 0; i < b; ++i) net.add_edge(task0 + i, t, 1);

  graph::max_flow(workspace, s, t);

  std::vector<char> assigned(b, 0);
  std::vector<std::uint32_t> used(m, 0);
  for (graph::EdgeIdx e = m; e < m + pt_count; ++e) {
    if (net.flow(e) == 1) {
      const std::uint32_t p = net.edge_from(e) - proc0;
      const std::uint32_t i = net.edge_to(e) - task0;
      plan.assignment[p].push_back(batch[i].id);
      assigned[i] = 1;
      ++used[p];
      ++plan.locally_matched;
      plan.stats.local_bytes += nn_.chunk(batch[i].inputs[0]).size;
    }
  }

  // Random fill onto processes with remaining batch quota.
  std::vector<std::uint32_t> open;
  for (std::uint32_t p = 0; p < m; ++p)
    if (used[p] < quota[p]) open.push_back(p);
  std::vector<std::uint32_t> leftovers;
  for (std::uint32_t i = 0; i < b; ++i)
    if (!assigned[i]) leftovers.push_back(i);
  rng.shuffle(leftovers);
  for (std::uint32_t i : leftovers) {
    OPASS_CHECK(!open.empty(), "no process has remaining batch quota");
    const auto pick = rng.uniform(open.size());
    const std::uint32_t p = open[pick];
    plan.assignment[p].push_back(batch[i].id);
    ++used[p];
    ++plan.randomly_filled;
    // A fill can still land on a replica holder by luck; count it local.
    if (nn_.chunk(batch[i].inputs[0]).has_replica_on(placement_[p]))
      plan.stats.local_bytes += nn_.chunk(batch[i].inputs[0]).size;
    if (used[p] == quota[p]) {
      open[pick] = open.back();
      open.pop_back();
    }
  }

  // Batch-local profile (the assignment holds caller ids, so a global
  // evaluate_assignment() pass does not apply — accumulate directly).
  plan.stats.task_count = b;
  for (const auto& task : batch) plan.stats.total_bytes += nn_.chunk(task.inputs[0]).size;
  plan.stats.min_tasks_per_process = UINT32_MAX;
  for (std::uint32_t p = 0; p < m; ++p) {
    plan.stats.max_tasks_per_process = std::max(plan.stats.max_tasks_per_process, used[p]);
    plan.stats.min_tasks_per_process = std::min(plan.stats.min_tasks_per_process, used[p]);
    load_[p] += used[p];
  }
  return plan;
}

}  // namespace opass::core
