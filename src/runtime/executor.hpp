// Parallel execution driver.
//
// Models an MPI job: `process_count` processes launched simultaneously, one
// pinned per cluster node (process i on node i % node_count, matching the
// paper's one-process-per-node deployments). Each process loops: pull a task
// from the TaskSource, read the task's input chunks sequentially through the
// simulated cluster (local replica preferred, remote replica chosen by the
// configured policy), spend the task's compute time, repeat. The job ends at
// the implicit barrier when every process has drained — the paper's "overall
// execution time will be decided by the longest running process". That is
// the executor's only barrier; a synchronization step between jobs (a
// ParaView rendering step, an iterative epoch) is a phase of exp's Run.
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
/// its compute phase (input reads + compute). Feeds the per-process task
/// timeline of the Chrome trace exporter.
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
  /// Node each process ran on (process p on p % node_count when the
  /// Execution was built); a node that joins later changes the count but
  /// not the processes already placed.
  std::vector<dfs::NodeId> process_node;
  /// Per-task (pull → compute-done) intervals, in compute-completion order.
  std::vector<TaskSpan> task_spans;
  /// Causal breakdown of each completed read, index-aligned with
  /// trace.records() (empty unless ExecutorConfig::record_read_breakdown).
  /// Kept out of ReadRecord so the breakdown's per-interval storage is only
  /// paid when causal tracing is on.
  std::vector<sim::ReadBreakdown> read_breakdowns;
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
  /// Record each read's causal breakdown (admission wait, positioning,
  /// binding-resource transfer intervals) into
  /// ExecutionResult::read_breakdowns for the obs span log. Enables the
  /// cluster's breakdown recording while the Execution lives; observation
  /// only — the simulated schedule is byte-identical either way.
  bool record_read_breakdown = false;
  /// Optional probe (borrowed; must outlive the run): one kOpBegin/kOpEnd
  /// pair per chunk read and per compute phase. Null = one branch each.
  Probe* probe = nullptr;
};

/// One job on the cluster: `process_count` processes pulling from one source
/// and reading the task table's inputs. Build it, launch() it, run the
/// cluster (until idle with Cluster::run(), or only until this job's last
/// process drained with run_until_done()), then take_result(). Executions
/// launched on one cluster are the shared-cluster setting of paper Section
/// V-C1 ("clusters are usually shared by multiple applications"): they
/// contend for the same disks and NICs, and each keeps its own trace and
/// makespan (the absolute time its last process drained).
///
/// Simulator callbacks hold its address, so it is neither copyable nor
/// movable and must outlive every cluster run that serves it. With
/// ExecutorConfig::record_read_breakdown it turns the cluster's breakdown
/// recording on, and off again when destroyed if it was off before.
class Execution {
 public:
  /// Checks the configuration before touching the cluster. `tasks` is the
  /// task table indexed by TaskId; `rng` drives replica choice.
  Execution(sim::Cluster& cluster, const dfs::NameNode& nn, const std::vector<Task>& tasks,
            TaskSource& source, Rng& rng, const ExecutorConfig& config = {});
  ~Execution();
  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  /// Start every process at `start_time`; a time not after now starts them
  /// now.
  void launch(Seconds start_time);

  /// Run the cluster until every process of this job drained and return the
  /// virtual time it stopped at. Other work on the cluster (other jobs, fault
  /// timers, recovery traffic) may still be pending then.
  Seconds run_until_done();

  /// True once every process drained (the job's implicit final barrier).
  bool done() const { return done_; }

  /// Move the result out, its makespan filled in; call once, when done().
  ExecutionResult take_result();

 private:
  struct ProcState;  ///< one process's progress (executor.cpp)

  void pull_next_task(ProcessId p);
  void retire_process(ProcessId p);
  void task_complete(ProcessId p);
  void read_next_input(ProcessId p);
  void reads_finished_prefetch(ProcessId p);
  void cycle_event(ProcessId p);
  void issue_read(ProcessId p, dfs::ChunkId cid);
  void emit(ProbeKind kind, ProcessId p) const;

  sim::Cluster& cluster_;
  const dfs::NameNode& nn_;
  const std::vector<Task>& tasks_;
  TaskSource& source_;
  Rng& rng_;
  const ExecutorConfig config_;
  bool stop_recording_ = false;  ///< turned the cluster's recording on
  std::vector<char> retired_;  ///< per process: drained
  std::uint32_t drained_ = 0;
  bool done_ = false;
  std::vector<ProcState> states_;
  ExecutionResult result_;
};

/// Run one job on `cluster` (which must be idle) until the cluster is idle
/// again, and return its result: an Execution launched now.
ExecutionResult execute(sim::Cluster& cluster, const dfs::NameNode& nn,
                        const std::vector<Task>& tasks, TaskSource& source, Rng& rng,
                        ExecutorConfig config = {});

}  // namespace opass::runtime
