// Message-based master–worker execution (the mpiBLAST architecture of paper
// Sections II-B and IV-D, with real scheduler messages).
//
// runtime::execute() models the master as a zero-cost oracle (the TaskSource
// is called directly). This variant pays for scheduling explicitly: rank 0
// is the master; every worker sends a REQUEST message when idle, the master
// answers with a GRANT carrying the task id (or a STOP), the worker reads
// the task's chunks from the DFS, computes, and requests again. This is the
// substrate for quantifying the paper's Section V-C2 argument that
// "the scheduling scalability issue is less important compared to the actual
// data movement".
#pragma once

#include "dfs/namenode.hpp"
#include "mpi/comm.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"

namespace opass::mpi {

/// Result of a message-based run: the usual execution result plus the
/// scheduler-traffic accounting.
struct MasterWorkerResult {
  runtime::ExecutionResult exec;
  std::uint64_t scheduler_messages = 0;
  Bytes scheduler_bytes = 0;
};

/// Run tasks to completion: rank 0 = master (it also executes tasks between
/// dispatching — matching mpiBLAST's dedicated-master *variant* is just
/// `worker_ranks = 1..n-1`, which is what we model: the master dispatches
/// only, workers 1..size-1 execute). The TaskSource sees worker ids
/// 0..size-2 (worker rank minus one). A REQUEST is 64 bytes on the wire, a
/// GRANT or STOP 128, and workers pick among a chunk's live replicas at
/// random (dfs::ReplicaChoice::kRandom); a read whose server fails is
/// counted in read_failures and retried on another replica.
MasterWorkerResult run_master_worker(sim::Cluster& cluster, const dfs::NameNode& nn,
                                     const std::vector<runtime::Task>& tasks,
                                     runtime::TaskSource& source, Comm& comm, Rng& rng);

}  // namespace opass::mpi
