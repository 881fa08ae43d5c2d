#include "opass/rack_aware.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "graph/flow_network.hpp"
#include "opass/process_index.hpp"
#include "opass/single_data.hpp"  // equal_quotas

namespace opass::core {

namespace {

/// One max-flow phase: match `open` tasks to processes with remaining quota.
/// Row p of `candidates` lists, ascending, the open indexes process p may
/// take, so edges go in p-major, ascending-open-index order. Updates
/// owner/used; returns the matched count.
std::uint32_t match_phase(std::uint32_t m, const std::vector<std::uint32_t>& quotas,
                          std::vector<std::uint32_t>& used,
                          std::vector<std::uint32_t>& owner,
                          const std::vector<std::uint32_t>& open, const Adjacency& candidates,
                          graph::FlowWorkspace& ws) {
  const auto open_count = static_cast<graph::NodeIdx>(open.size());
  graph::FlowNetwork& net = ws.network;
  net.clear(2 + m + open_count);
  const graph::NodeIdx s = 0;
  const graph::NodeIdx t = 1;
  const graph::NodeIdx proc0 = 2;
  const graph::NodeIdx task0 = 2 + m;
  for (std::uint32_t p = 0; p < m; ++p)
    net.add_edge(s, proc0 + p, static_cast<graph::Cap>(quotas[p] - used[p]));

  for (std::uint32_t p = 0; p < m; ++p)
    for (std::uint32_t oi : candidates.row(p)) net.add_edge(proc0 + p, task0 + oi, 1);
  const auto pt_count = static_cast<std::uint32_t>(candidates.items.size());
  for (std::uint32_t oi = 0; oi < open_count; ++oi) net.add_edge(task0 + oi, t, 1);

  graph::max_flow(ws, s, t);

  std::uint32_t matched = 0;
  for (graph::EdgeIdx e = m; e < m + pt_count; ++e) {
    if (net.flow(e) == 1) {
      const std::uint32_t p = net.edge_from(e) - proc0;
      const std::uint32_t task = open[net.edge_to(e) - task0];
      owner[task] = p;
      ++used[p];
      ++matched;
    }
  }
  return matched;
}

}  // namespace

RackAwarePlan assign_single_data_rack_aware(const dfs::NameNode& nn,
                                            const std::vector<runtime::Task>& tasks,
                                            const ProcessPlacement& placement, Rng& rng,
                                            RackAwareOptions options) {
  const auto m = static_cast<std::uint32_t>(placement.size());
  const auto n = static_cast<std::uint32_t>(tasks.size());
  OPASS_REQUIRE(m > 0, "need at least one process");
  for (const auto& t : tasks)
    OPASS_REQUIRE(t.inputs.size() == 1, "single-data tasks must have exactly one input");
  const Adjacency procs_on_node = processes_by_node(nn, placement);

  const auto quotas = equal_quotas(n, m);
  const auto& topo = nn.topology();

  graph::FlowWorkspace local_ws;
  graph::FlowWorkspace& ws = options.workspace ? *options.workspace : local_ws;

  std::vector<std::uint32_t> owner(n, UINT32_MAX);
  std::vector<std::uint32_t> used(m, 0);
  RackAwarePlan plan;

  // Phase 1: node-local — the processes on a replica's node.
  std::vector<std::uint32_t> open;
  std::vector<dfs::ChunkId> chunks;
  for (std::uint32_t t = 0; t < n; ++t) {
    open.push_back(t);
    chunks.push_back(tasks[t].inputs[0]);
  }
  plan.node_local = match_phase(
      m, quotas, used, owner, open,
      transpose(replica_holders(nn, chunks, procs_on_node), m), ws);

  // Phase 2: rack-local over the remainder — every process in a rack that
  // holds a replica (each rack once, however many replicas it holds).
  open.clear();
  for (std::uint32_t t = 0; t < n; ++t)
    if (owner[t] == UINT32_MAX) open.push_back(t);
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
    plan.rack_local =
        match_phase(m, quotas, used, owner, open, transpose(rack_holders, m), ws);
  }

  // Phase 3: random fill of the rest.
  std::vector<std::uint32_t> unmatched;
  for (std::uint32_t t = 0; t < n; ++t)
    if (owner[t] == UINT32_MAX) unmatched.push_back(t);
  rng.shuffle(unmatched);
  std::vector<std::uint32_t> open_procs;
  for (std::uint32_t p = 0; p < m; ++p)
    if (used[p] < quotas[p]) open_procs.push_back(p);
  for (std::uint32_t t : unmatched) {
    OPASS_CHECK(!open_procs.empty(), "no process has remaining quota for fill");
    const auto pick = rng.uniform(open_procs.size());
    const std::uint32_t p = open_procs[pick];
    owner[t] = p;
    ++plan.random_filled;
    if (++used[p] == quotas[p]) {
      open_procs[pick] = open_procs.back();
      open_procs.pop_back();
    }
  }

  plan.assignment.assign(m, {});
  for (std::uint32_t t = 0; t < n; ++t) plan.assignment[owner[t]].push_back(t);
  for (auto& list : plan.assignment) std::sort(list.begin(), list.end());
  return plan;
}

}  // namespace opass::core
