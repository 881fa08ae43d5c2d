// Incremental Opass planning for task batches that arrive over time.
//
// The paper's matchers assume the whole task set is known up front. In
// streaming settings (a visualization session opening new time steps, a
// pipeline ingesting series data) tasks arrive in batches; re-running the
// full matcher over everything would re-assign work that already executed.
// The incremental planner keeps per-process cumulative load and matches each
// new batch with a fresh Fig. 5 flow whose process capacities are the
// batch-adjusted fair share — so load stays balanced *across* batches while
// each batch gets the maximum locality available to it.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "graph/max_flow.hpp"
#include "opass/assignment_stats.hpp"
#include "opass/process_index.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// Result of matching one batch.
struct [[nodiscard]] BatchPlan {
  /// Per-process lists of *global* task ids (as supplied in the batch).
  runtime::Assignment assignment;
  std::uint32_t locally_matched = 0;
  std::uint32_t randomly_filled = 0;
  /// Locality/balance profile of this batch's assignment (same shape as
  /// PlanResult::stats; task ids in the assignment are the caller's, so this
  /// is computed against the batch itself, not a global task table).
  AssignmentStats stats;
};

/// Stateful planner: construct once, then match_batch() per arrival.
class IncrementalPlanner {
 public:
  IncrementalPlanner(const dfs::NameNode& nn, ProcessPlacement placement);

  /// Match a batch of single-input tasks (ids are whatever the caller uses;
  /// they are returned verbatim in the assignment). Quotas for the batch
  /// are chosen so cumulative per-process task counts stay within one of
  /// each other. A non-null `workspace` replaces the planner's internal
  /// arena.
  BatchPlan match_batch(const std::vector<runtime::Task>& batch, Rng& rng,
                        graph::FlowWorkspace* workspace = nullptr);

  /// Cumulative tasks assigned to each process so far.
  const std::vector<std::uint32_t>& load() const { return load_; }

  std::uint32_t batches_matched() const { return batches_; }

 private:
  const dfs::NameNode& nn_;
  ProcessPlacement placement_;
  Adjacency procs_on_node_;  ///< processes_by_node(), built once
  graph::FlowWorkspace workspace_;  ///< reused across batches: no steady-state allocation
  std::vector<std::uint32_t> load_;
  std::uint32_t batches_ = 0;
};

}  // namespace opass::core
