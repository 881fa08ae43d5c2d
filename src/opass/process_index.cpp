#include "opass/process_index.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "common/require.hpp"

namespace opass::core {

namespace {

void require_known_nodes(const dfs::NameNode& nn, const ProcessPlacement& placement) {
  for (dfs::NodeId node : placement)
    OPASS_REQUIRE(node < nn.node_count(), "process placed on unknown node");
}

}  // namespace

ProcessPlacement one_process_per_node(const dfs::NameNode& nn, std::uint32_t process_count) {
  const std::uint32_t m = process_count ? process_count : nn.node_count();
  ProcessPlacement placement(m);
  for (std::uint32_t p = 0; p < m; ++p)
    placement[p] = static_cast<dfs::NodeId>(p % nn.node_count());
  return placement;
}

Adjacency transpose(const Adjacency& adj, std::uint32_t columns) {
  return group_by_column(columns, [&](const auto& emit) {
    for (std::uint32_t r = 0; r < adj.rows(); ++r)
      for (std::uint32_t c : adj.row(r)) emit(r, c);
  });
}

Adjacency processes_by_node(const dfs::NameNode& nn, const ProcessPlacement& placement) {
  require_known_nodes(nn, placement);
  return group_by_column(nn.node_count(), [&](const auto& emit) {
    for (std::uint32_t p = 0; p < placement.size(); ++p) emit(p, placement[p]);
  });
}

Adjacency processes_by_rack(const dfs::NameNode& nn, const ProcessPlacement& placement) {
  require_known_nodes(nn, placement);
  const auto& topo = nn.topology();
  return group_by_column(topo.rack_count(), [&](const auto& emit) {
    for (std::uint32_t p = 0; p < placement.size(); ++p) emit(p, topo.rack_of(placement[p]));
  });
}

Adjacency replica_holders(const dfs::NameNode& nn, const std::vector<dfs::ChunkId>& chunks,
                          const Adjacency& by_node) {
  // Replicas sit on distinct nodes and each process on one node, so the
  // gathered processes are distinct; sorting restores ascending order.
  Adjacency out;
  std::size_t total = 0;
  for (dfs::ChunkId c : chunks)
    for (dfs::NodeId rep : nn.chunk(c).replicas) total += by_node.row(rep).size();
  out.offset.reserve(chunks.size() + 1);
  out.items.reserve(total);
  for (dfs::ChunkId c : chunks) {
    const auto begin = out.items.size();
    for (dfs::NodeId rep : nn.chunk(c).replicas) {
      const auto procs = by_node.row(rep);
      out.items.insert(out.items.end(), procs.begin(), procs.end());
    }
    std::sort(out.items.begin() + static_cast<std::ptrdiff_t>(begin), out.items.end());
    out.end_row();
  }
  return out;
}

std::vector<std::uint32_t> least_loaded_quotas(const std::vector<std::uint32_t>& load,
                                               std::uint32_t b) {
  const auto m = static_cast<std::uint32_t>(load.size());
  OPASS_REQUIRE(m > 0, "need at least one process");
  std::vector<std::uint32_t> quota(m, 0);
  // Min-heap on (load + quota, process): the pair order is the tie-break.
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<Entry> entries(m);
  for (std::uint32_t p = 0; p < m; ++p) entries[p] = {load[p], p};
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap(std::greater<>{},
                                                                      std::move(entries));
  for (std::uint32_t granted = 0; granted < b; ++granted) {
    const auto [key, p] = heap.top();
    heap.pop();
    ++quota[p];
    heap.push({key + 1, p});
  }
  return quota;
}

}  // namespace opass::core
