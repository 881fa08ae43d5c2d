// Parallel execution driver.
//
// Models an MPI job: `process_count` processes launched simultaneously, one
// pinned per cluster node (process i on node i % node_count, matching the
// paper's one-process-per-node deployments). Each process loops: pull a task
// from the TaskSource, read the task's input chunks sequentially through the
// simulated cluster (local replica preferred, remote replica chosen by the
// configured policy), spend the task's compute time, repeat. The job ends at
// the implicit barrier when every process has drained — the paper's "overall
// execution time will be decided by the longest running process".
//
// The executor stays metric-blind (DESIGN.md §8): it emits op events to
// ExecutorConfig::probe and keeps no depth of its own.
#pragma once

#include <cstdint>
#include <vector>

#include "common/probe.hpp"
#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "dfs/replica_choice.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"
#include "runtime/task.hpp"
#include "runtime/task_source.hpp"

namespace opass::runtime {

/// One task's lifetime on a process: from the successful pull to the end of
/// its compute phase (input reads + compute; any barrier wait afterwards is
/// accounted separately in ExecutionResult::barrier_stall). Feeds the
/// per-process task timeline of the Chrome trace exporter.
struct TaskSpan {
  ProcessId process = 0;
  TaskId task = kInvalidTask;
  Seconds start = 0;  ///< when the task was pulled from the source
  Seconds end = 0;    ///< when its compute phase completed
};

/// Outcome of one parallel execution.
struct ExecutionResult {
  sim::TraceRecorder trace;
  std::vector<Seconds> process_finish_time;  ///< per-process drain time
  /// Per-task (pull → compute-done) intervals, in compute-completion order.
  std::vector<TaskSpan> task_spans;
  /// Causal breakdown of each completed read, index-aligned with
  /// trace.records() (empty unless ExecutorConfig::record_read_breakdown).
  /// Kept out of ReadRecord so the breakdown's per-interval storage is only
  /// paid when causal tracing is on.
  std::vector<sim::ReadBreakdown> read_breakdowns;
  /// Per-process seconds spent waiting at BSP per-task barriers (all zero
  /// unless ExecutorConfig::barrier_per_task). The implicit final barrier is
  /// not included — it is `makespan - process_finish_time[p]`.
  std::vector<Seconds> barrier_stall;
  Seconds makespan = 0;                      ///< max finish time (the barrier)
  std::uint32_t tasks_executed = 0;
  std::uint32_t read_failures = 0;  ///< aborted reads retried on another replica
};

/// Configuration of one parallel execution.
struct ExecutorConfig {
  std::uint32_t process_count = 0;  ///< 0 = one process per cluster node
  dfs::ReplicaChoice replica_choice = dfs::ReplicaChoice::kRandom;
  /// Overlap each task's compute with the next task's reads (depth-1
  /// read-ahead / double buffering). With prefetch on, a process pulls its
  /// next task as soon as it starts computing, so compute-heavy workloads
  /// hide their I/O entirely. Off by default — the paper's applications
  /// read synchronously.
  bool prefetch = false;
  /// BSP execution: a barrier after every task — no process starts its
  /// (k+1)-th task until every process finished its k-th. This is the
  /// "synchronization requirement" the paper cites for why one slow read
  /// prolongs the whole execution; it makes the imbalance penalty visible
  /// in its purest form. Mutually exclusive with prefetch.
  bool barrier_per_task = false;
  /// Record each read's causal breakdown (admission wait, positioning,
  /// binding-resource transfer intervals) into
  /// ExecutionResult::read_breakdowns for the obs span log. Enables the
  /// cluster's breakdown recording for the duration of the run and restores
  /// the cluster's previous setting when the run returns; observation only —
  /// the simulated schedule is byte-identical either way.
  bool record_read_breakdown = false;
  /// Optional probe (borrowed; must outlive the run): one kOpBegin/kOpEnd
  /// pair per chunk read and per compute phase. Null = one branch each.
  Probe* probe = nullptr;
};

/// Run the job to completion on `cluster` (which must be idle) and return the
/// trace. `tasks` is the task table indexed by TaskId; `source` dispenses
/// task ids. `rng` drives replica choice.
ExecutionResult execute(sim::Cluster& cluster, const dfs::NameNode& nn,
                        const std::vector<Task>& tasks, TaskSource& source, Rng& rng,
                        ExecutorConfig config = {});

/// One application in a multi-job run.
struct JobSpec {
  const std::vector<Task>* tasks = nullptr;  ///< task table for this job
  TaskSource* source = nullptr;              ///< dispenser for this job
  ExecutorConfig config;
  Seconds start_time = 0;  ///< launch offset relative to the run's t = 0
};

/// Run several applications concurrently on one cluster — the shared-cluster
/// setting of paper Section V-C1 ("clusters are usually shared by multiple
/// applications"). Jobs contend for the same disks and NICs; each gets its
/// own trace and makespan (absolute completion time of its last process).
std::vector<ExecutionResult> execute_jobs(sim::Cluster& cluster, const dfs::NameNode& nn,
                                          std::vector<JobSpec> jobs, Rng& rng);

}  // namespace opass::runtime
