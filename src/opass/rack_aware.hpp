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
// paper's objective.
#pragma once

#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "graph/max_flow.hpp"
#include "opass/locality_graph.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// Knobs for the rack-aware assigner (options-last on every entry point).
struct RackAwareOptions {
  /// Optional reusable network + solver arenas shared by both match phases.
  graph::FlowWorkspace* workspace = nullptr;
};

/// Result of the three-phase matching.
struct [[nodiscard]] RackAwarePlan {
  runtime::Assignment assignment;
  std::uint32_t node_local = 0;  ///< tasks matched on the process's node
  std::uint32_t rack_local = 0;  ///< tasks matched within the process's rack
  std::uint32_t random_filled = 0;

  std::uint32_t task_count() const { return node_local + rack_local + random_filled; }
};

/// Compute the rack-aware assignment. Single-input tasks; quotas n/m as in
/// assign_single_data.
RackAwarePlan assign_single_data_rack_aware(const dfs::NameNode& nn,
                                            const std::vector<runtime::Task>& tasks,
                                            const ProcessPlacement& placement, Rng& rng,
                                            RackAwareOptions options = {});

}  // namespace opass::core
