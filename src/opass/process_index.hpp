// Process placement and the process-side indexes shared by the planners.
//
// Opass's first step (paper Section IV-A) is to "retrieve data distribution
// information from storage and build the locality relationship between
// processes and chunk files": a process is co-located with a chunk when one
// of the chunk's replicas (NameNode::locations, HDFS's
// getFileBlockLocations) sits on the process's node.
//
// Placement is fixed for a planner's lifetime, so the processes hosted on
// each node are indexed once. A planner then finds a task's Fig. 5 edges from
// its chunk's r replicas — O(r) index lookups — instead of testing the task
// against all m processes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/require.hpp"
#include "dfs/namenode.hpp"

namespace opass::core {

/// Where each process runs (index = ProcessId, value = NodeId).
using ProcessPlacement = std::vector<dfs::NodeId>;

/// One process pinned to each of the first `process_count` nodes (the
/// paper's deployment); `process_count` = 0 means one per cluster node.
ProcessPlacement one_process_per_node(const dfs::NameNode& nn, std::uint32_t process_count = 0);

/// Row-compressed lists: row r holds `items[offset[r], offset[r + 1])`.
struct Adjacency {
  std::vector<std::uint32_t> offset{0};
  std::vector<std::uint32_t> items;

  std::uint32_t rows() const { return static_cast<std::uint32_t>(offset.size() - 1); }
  std::span<const std::uint32_t> row(std::uint32_t r) const {
    return {items.data() + offset[r], offset[r + 1] - offset[r]};
  }
  /// Close the row whose items were appended since the previous call.
  void end_row() { offset.push_back(static_cast<std::uint32_t>(items.size())); }
};

/// Counting sort of (row, column) entries into per-column lists of rows.
/// `entries(emit)` calls emit(row, column) for every entry with rows
/// ascending, so each output list comes out sorted; it runs twice (count,
/// then fill) and must emit the same sequence both times. Sizing every
/// array exactly up front also keeps the heap from fragmenting.
template <class Entries>
Adjacency group_by_column(std::uint32_t columns, const Entries& entries) {
  Adjacency out;
  out.offset.assign(columns + 1, 0);
  entries([&](std::uint32_t, std::uint32_t c) {
    OPASS_CHECK(c < columns, "adjacency entry out of range");
    ++out.offset[c + 1];
  });
  for (std::uint32_t c = 0; c < columns; ++c) out.offset[c + 1] += out.offset[c];
  out.items.resize(out.offset[columns]);
  std::vector<std::uint32_t> next(out.offset.begin(), out.offset.end() - 1);
  entries([&](std::uint32_t r, std::uint32_t c) { out.items[next[c]++] = r; });
  return out;
}

/// Transpose `adj` onto `columns` rows: row c lists, ascending, every row of
/// `adj` that contains c (once per occurrence).
Adjacency transpose(const Adjacency& adj, std::uint32_t columns);

/// Row n lists, ascending, the processes placed on node n (one row per
/// cluster node; a node without processes has an empty row).
Adjacency processes_by_node(const dfs::NameNode& nn, const ProcessPlacement& placement);

/// Row k lists, ascending, the processes placed in rack k.
Adjacency processes_by_rack(const dfs::NameNode& nn, const ProcessPlacement& placement);

/// Row k lists, ascending, the processes co-located with a replica of
/// `chunks[k]`: the Fig. 5 locality edges of that task.
Adjacency replica_holders(const dfs::NameNode& nn, const std::vector<dfs::ChunkId>& chunks,
                          const Adjacency& by_node);

/// Per-process quotas for `b` new tasks: each slot goes to the process with
/// the least `load + quota`, the lowest index winning ties, so cumulative
/// loads stay within one of each other. O(m + b log m).
std::vector<std::uint32_t> least_loaded_quotas(const std::vector<std::uint32_t>& load,
                                               std::uint32_t b);

}  // namespace opass::core
