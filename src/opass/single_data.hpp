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
// quota, exactly as Section IV-B prescribes.
//
// Callers go through the opass::core::plan() facade (planner.hpp); this
// free function is the planner behind it.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "graph/max_flow.hpp"
#include "opass/locality_graph.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// Knobs for the single-data assigner (options-last on every entry point).
struct SingleDataOptions {
  /// When set, the network and solver scratch are built into this workspace
  /// and reused across calls — repeated replanning allocates nothing once
  /// the arenas are warm.
  graph::FlowWorkspace* workspace = nullptr;
};

/// Result of the flow-based assignment.
struct [[nodiscard]] SingleDataPlan {
  runtime::Assignment assignment;   ///< per-process task lists
  std::uint32_t locally_matched = 0;  ///< tasks assigned to a co-located process
  std::uint32_t randomly_filled = 0;  ///< tasks placed by the random fill pass
  bool full_matching = false;         ///< every task matched locally

  std::uint32_t task_count() const { return locally_matched + randomly_filled; }
};

/// Compute the Opass single-data assignment. Every task must have exactly
/// one input chunk. Quotas are equal_quotas() (opass/fig5.hpp): n/m tasks per
/// process, the first n%m processes taking one extra.
SingleDataPlan assign_single_data(const dfs::NameNode& nn,
                                  const std::vector<runtime::Task>& tasks,
                                  const ProcessPlacement& placement, Rng& rng,
                                  SingleDataOptions options = {});

}  // namespace opass::core
