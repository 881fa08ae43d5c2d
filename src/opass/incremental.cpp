#include "opass/incremental.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "opass/fig5.hpp"

namespace opass::core {

IncrementalPlanner::IncrementalPlanner(const dfs::NameNode& nn, ProcessPlacement placement)
    : nn_(nn), placement_(std::move(placement)),
      procs_on_node_(processes_by_node(nn, placement_)), load_(placement_.size(), 0) {
  OPASS_REQUIRE(!placement_.empty(), "need at least one process");
}

BatchPlan IncrementalPlanner::match_batch(const std::vector<runtime::Task>& batch, Rng& rng,
                                          graph::FlowWorkspace* workspace) {
  const auto m = static_cast<std::uint32_t>(placement_.size());
  const auto b = static_cast<std::uint32_t>(batch.size());
  for (const auto& t : batch)
    OPASS_REQUIRE(t.inputs.size() == 1, "single-data tasks must have exactly one input");

  BatchPlan plan;
  plan.assignment.assign(m, {});
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
  // The internal workspace is rebuilt, not reconstructed, so steady-state
  // batches reuse its arenas.
  std::vector<std::uint32_t> owner =
      solve_fig5(workspace ? *workspace : workspace_,
                 std::vector<graph::Cap>(quota.begin(), quota.end()), b,
                 process_major_edges(tasks_of));
  for (std::uint32_t i = 0; i < b; ++i) {
    if (owner[i] == kNoOwner) continue;
    plan.assignment[owner[i]].push_back(batch[i].id);
    ++plan.locally_matched;
    plan.stats.local_bytes += nn_.chunk(batch[i].inputs[0]).size;
  }

  // Random fill onto processes with remaining batch quota.
  for (std::uint32_t i : random_fill(owner, quota, rng)) {
    const std::uint32_t p = owner[i];
    plan.assignment[p].push_back(batch[i].id);
    ++plan.randomly_filled;
    // A fill can still land on a replica holder by luck; count it local.
    if (nn_.chunk(batch[i].inputs[0]).has_replica_on(placement_[p]))
      plan.stats.local_bytes += nn_.chunk(batch[i].inputs[0]).size;
  }

  // Batch-local profile (the assignment holds caller ids, so a global
  // evaluate_assignment() pass does not apply — accumulate directly).
  plan.stats.task_count = b;
  for (const auto& task : batch) plan.stats.total_bytes += nn_.chunk(task.inputs[0]).size;
  plan.stats.min_tasks_per_process = UINT32_MAX;
  for (std::uint32_t p = 0; p < m; ++p) {
    const auto used = static_cast<std::uint32_t>(plan.assignment[p].size());
    plan.stats.max_tasks_per_process = std::max(plan.stats.max_tasks_per_process, used);
    plan.stats.min_tasks_per_process = std::min(plan.stats.min_tasks_per_process, used);
    load_[p] += used;
  }
  return plan;
}

}  // namespace opass::core
