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
#pragma once

#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "graph/max_flow.hpp"
#include "opass/locality_graph.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// Result of the byte-weighted assignment.
struct [[nodiscard]] WeightedPlan {
  runtime::Assignment assignment;
  Bytes local_bytes = 0;      ///< bytes assigned to a co-located process
  Bytes total_bytes = 0;
  Bytes max_process_bytes = 0;  ///< heaviest per-process byte load
  Bytes min_process_bytes = 0;  ///< lightest per-process byte load
  std::uint32_t flow_assigned = 0;  ///< tasks placed by the max-flow
  std::uint32_t fill_assigned = 0;  ///< tasks placed by the balance fill

  double local_fraction() const {
    return total_bytes ? static_cast<double>(local_bytes) / static_cast<double>(total_bytes)
                       : 0.0;
  }
};

/// Knobs for the weighted assigner (options-last on every entry point).
struct WeightedOptions {
  /// Optional reusable network + solver arenas (see SingleDataOptions).
  graph::FlowWorkspace* workspace = nullptr;
};

/// Compute the byte-balanced Opass assignment. Every task must have exactly
/// one input chunk (sizes may differ).
WeightedPlan assign_single_data_weighted(const dfs::NameNode& nn,
                                         const std::vector<runtime::Task>& tasks,
                                         const ProcessPlacement& placement, Rng& rng,
                                         WeightedOptions options = {});

}  // namespace opass::core
