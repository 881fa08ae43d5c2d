// Rack-aware single-data assignment (extension beyond the paper).
//
// Marmot hangs every node off one switch, so the paper only distinguishes
// local vs remote. Production HDFS clusters are racked with oversubscribed
// cores, giving three locality levels: node-local, rack-local, off-rack.
// This matcher extends the Fig. 5 construction to two phases:
//
//   phase 1  node-local max-flow (identical to assign_single_data);
//   phase 2  rack-local max-flow over the tasks and quota left unmatched,
//            with an edge (p, f) when f has a replica in p's rack;
//   phase 3  random fill for whatever remains.
//
// Off-rack traffic is what the oversubscribed core punishes, so maximizing
// the first two levels in order is the natural generalization of the
// paper's objective. Quotas are n/m tasks as in assign_single_data.
#include <algorithm>

#include "common/require.hpp"
#include "opass/fig5.hpp"
#include "opass/matchers.hpp"

namespace opass::core {

PlanResult assign_single_data_rack_aware(const dfs::NameNode& nn,
                                         const std::vector<runtime::Task>& tasks,
                                         const ProcessPlacement& placement, Rng& rng,
                                         graph::FlowWorkspace* workspace) {
  const auto m = static_cast<std::uint32_t>(placement.size());
  const auto n = static_cast<std::uint32_t>(tasks.size());
  OPASS_REQUIRE(m > 0, "need at least one process");
  for (const auto& t : tasks)
    OPASS_REQUIRE(t.inputs.size() == 1, "single-data tasks must have exactly one input");
  const Adjacency procs_on_node = processes_by_node(nn, placement);

  const auto quotas = equal_quotas(n, m);
  const auto& topo = nn.topology();

  graph::FlowWorkspace local_ws;
  graph::FlowWorkspace& ws = workspace ? *workspace : local_ws;
  PlanResult plan;

  // Phase 1: node-local — the processes on a replica's node, edges
  // process-major in ascending task order.
  std::vector<dfs::ChunkId> chunks;
  for (const auto& t : tasks) chunks.push_back(t.inputs[0]);
  const Adjacency node_tasks = transpose(replica_holders(nn, chunks, procs_on_node), m);
  std::vector<std::uint32_t> owner = solve_fig5(
      ws, std::vector<graph::Cap>(quotas.begin(), quotas.end()), n,
      process_major_edges(node_tasks));
  plan.locally_matched =
      static_cast<std::uint32_t>(n - std::count(owner.begin(), owner.end(), kNoOwner));

  // Phase 2: rack-local over the remainder and the quota left — every
  // process in a rack that holds a replica (each rack once, however many
  // replicas it holds).
  std::vector<std::uint32_t> open;
  for (std::uint32_t t = 0; t < n; ++t)
    if (owner[t] == kNoOwner) open.push_back(t);
  if (!open.empty() && topo.rack_count() > 1) {
    const Adjacency procs_in_rack = processes_by_rack(nn, placement);
    Adjacency rack_holders;
    std::vector<dfs::RackId> racks;
    for (std::uint32_t t : open) {
      racks.clear();
      for (dfs::NodeId rep : nn.chunk(tasks[t].inputs[0]).replicas) {
        const dfs::RackId rack = topo.rack_of(rep);
        if (std::find(racks.begin(), racks.end(), rack) != racks.end()) continue;
        racks.push_back(rack);
        const auto procs = procs_in_rack.row(rack);
        rack_holders.items.insert(rack_holders.items.end(), procs.begin(), procs.end());
      }
      rack_holders.end_row();
    }
    std::vector<graph::Cap> remaining(quotas.begin(), quotas.end());
    for (std::uint32_t p : owner)
      if (p != kNoOwner) --remaining[p];
    const Adjacency rack_tasks = transpose(rack_holders, m);
    const auto rack_owner = solve_fig5(ws, remaining, static_cast<std::uint32_t>(open.size()),
                                       process_major_edges(rack_tasks));
    for (std::uint32_t oi = 0; oi < open.size(); ++oi) {
      if (rack_owner[oi] == kNoOwner) continue;
      owner[open[oi]] = rack_owner[oi];
      ++plan.rack_local;
    }
  }

  // Phase 3: random fill of the rest.
  plan.randomly_filled = static_cast<std::uint32_t>(random_fill(owner, quotas, rng).size());
  plan.assignment = group_by_owner(owner, m);
  return plan;
}

}  // namespace opass::core
