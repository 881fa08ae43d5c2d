// Data processing tasks.
//
// Following the paper's terminology: each operator on data partitions is a
// *task*; a task has one input chunk (single-data access), or several chunks
// from different datasets (multi-data access, e.g. comparing human / mouse /
// chimpanzee genome partitions), plus an optional compute time that models
// the processing after the read (rendering, alignment, ...).
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_vector.hpp"
#include "common/units.hpp"
#include "dfs/namenode.hpp"
#include "dfs/types.hpp"

namespace opass::runtime {

using TaskId = std::uint32_t;
using ProcessId = std::uint32_t;

inline constexpr TaskId kInvalidTask = UINT32_MAX;

/// A task's input chunks, in read order. Four inline slots cover every
/// single-data task and the multi-data workloads' two- and three-dataset
/// comparisons; longer lists spill to the heap.
using TaskInputs = InlineVector<dfs::ChunkId, 4>;

/// One data-processing task.
struct Task {
  TaskId id = 0;
  TaskInputs inputs;         ///< chunks read (in order) before compute
  Seconds compute_time = 0;  ///< post-read processing time

  /// Total input bytes of the task (the paper's d(t_j) size).
  Bytes input_bytes(const dfs::NameNode& nn) const {
    Bytes total = 0;
    for (auto c : inputs) total += nn.chunk(c).size;
    return total;
  }
};

/// Build one single-input task per chunk of the given files, in chunk order.
std::vector<Task> single_input_tasks(const dfs::NameNode& nn,
                                     const std::vector<dfs::FileId>& files,
                                     Seconds compute_time = 0);

/// Total bytes across all tasks.
Bytes total_task_bytes(const dfs::NameNode& nn, const std::vector<Task>& tasks);

}  // namespace opass::runtime
