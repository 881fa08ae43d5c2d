// Opass for parallel multi-data access (paper Section IV-C, Algorithm 1).
//
// Tasks with several inputs (e.g. a human + mouse + chimpanzee gene partition
// per comparison task) cannot be matched by the unit flow network, because a
// task may be partly local to several processes at once. Algorithm 1 is a
// stable-marriage-style greedy: every process must end up with n/m tasks;
// a deficient process proposes to its best not-yet-considered task (highest
// co-located byte count m_i^j); an assigned task accepts a proposal only
// from a process with a strictly larger matching value, cancelling its
// current assignment (the reassignment event of Fig. 6(b)).
//
// The result is optimal from each process's perspective (proposer-optimal,
// as in Gale–Shapley) and runs in O(m * n) proposals.
#pragma once

#include <cstdint>

#include "dfs/namenode.hpp"
#include "opass/locality_graph.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// Result of the multi-data matching.
struct [[nodiscard]] MultiDataPlan {
  runtime::Assignment assignment;  ///< per-process task lists, quota each
  Bytes matched_bytes = 0;   ///< sum over assigned (p, t) of co-located bytes
  Bytes total_bytes = 0;     ///< sum of all task input bytes
  std::uint32_t reassignments = 0;  ///< tasks stolen by a better process

  double matched_fraction() const {
    return total_bytes ? static_cast<double>(matched_bytes) / static_cast<double>(total_bytes)
                       : 0.0;
  }
};

/// Run Algorithm 1. Works for any task arity (single-input tasks reduce to a
/// greedy locality matcher). Quotas are n/m tasks per process with the first
/// n%m processes taking one extra.
MultiDataPlan assign_multi_data(const dfs::NameNode& nn,
                                const std::vector<runtime::Task>& tasks,
                                const ProcessPlacement& placement);

}  // namespace opass::core
