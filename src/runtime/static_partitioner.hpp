// Rank-interval static task assignment — the ParaView baseline.
//
// Section II of the paper: each data-server process computes its own share of
// the meta-file from its rank; process i gets the task indices in
// [ i * n/m , (i+1) * n/m ). This is oblivious to data placement and is the
// baseline Opass improves on for single-data access.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/task.hpp"

namespace opass::runtime {

/// A complete assignment: per-process ordered task lists.
using Assignment = std::vector<std::vector<TaskId>>;

/// The ParaView rank-interval formula. Tasks need not divide evenly; the
/// interval arithmetic matches the paper's expression with integer floors, so
/// every task lands in exactly one process's interval.
Assignment rank_interval_assignment(std::uint32_t task_count, std::uint32_t process_count);

/// Sanity helper: true iff every task id in [0, task_count) appears exactly
/// once across all processes.
bool is_partition(const Assignment& a, std::uint32_t task_count);

}  // namespace opass::runtime
