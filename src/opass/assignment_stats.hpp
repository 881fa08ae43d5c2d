// Static (pre-simulation) quality metrics of a task assignment: how many
// bytes will be read locally, and how task loads spread across processes.
// These let tests and benches reason about assignments without running the
// cluster simulator.
#pragma once

#include <cstdint>

#include "dfs/namenode.hpp"
#include "opass/process_index.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// Locality/balance profile of an assignment.
struct AssignmentStats {
  Bytes total_bytes = 0;
  Bytes local_bytes = 0;          ///< input bytes co-located with the assignee
  std::uint32_t task_count = 0;
  std::uint32_t max_tasks_per_process = 0;
  std::uint32_t min_tasks_per_process = 0;

  double local_fraction() const {
    return total_bytes ? static_cast<double>(local_bytes) / static_cast<double>(total_bytes)
                       : 0.0;
  }
};

/// Compute the profile of `assignment` for the given tasks and placement.
AssignmentStats evaluate_assignment(const dfs::NameNode& nn,
                                    const std::vector<runtime::Task>& tasks,
                                    const runtime::Assignment& assignment,
                                    const ProcessPlacement& placement);

}  // namespace opass::core
