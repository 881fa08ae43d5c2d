#include "runtime/executor.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace opass::runtime {

struct Execution::ProcState {
  TaskId task = kInvalidTask;        ///< task whose inputs are being read
  std::size_t next_input = 0;
  Seconds task_start = 0;            ///< pull time of `task`
  // Prefetch mode: the cycle's join counter. A cycle = compute(T) overlapped
  // with reads(T+1); the cycle advances when both events have fired.
  TaskId computing = kInvalidTask;   ///< task whose compute is in flight, if any
  Seconds computing_start = 0;       ///< pull time of `computing`
  std::uint32_t events_pending = 0;
  /// The process's one in-flight read (reads are sequential). Kept here so
  /// the cluster callbacks capture only {this, p} and stay within
  /// std::function's small buffer: no heap allocation per read.
  sim::ReadRecord read;
};

Execution::Execution(sim::Cluster& cluster, const dfs::NameNode& nn,
                     const std::vector<Task>& tasks, TaskSource& source, Rng& rng,
                     const ExecutorConfig& config)
    : cluster_(cluster), nn_(nn), tasks_(tasks), source_(source), rng_(rng), config_(config) {
  const std::uint32_t m = config.process_count ? config.process_count : cluster.node_count();
  OPASS_REQUIRE(m > 0, "need at least one process");
  if (config.record_read_breakdown && !cluster.read_breakdown_recording()) {
    cluster.record_read_breakdown(true);
    stop_recording_ = true;
  }
  result_.process_finish_time.assign(m, 0);
  result_.process_node.resize(m);
  for (ProcessId p = 0; p < m; ++p)
    result_.process_node[p] = static_cast<dfs::NodeId>(p % cluster.node_count());
  // Each task runs once and reads each of its inputs once: size the trace
  // and the spans for the whole table.
  std::size_t reads = 0;
  for (const Task& task : tasks) reads += task.inputs.size();
  result_.trace.reserve(reads);
  result_.task_spans.reserve(tasks.size());
  if (config.record_read_breakdown) result_.read_breakdowns.reserve(reads);
  retired_.assign(m, 0);
  states_.resize(m);
}

Execution::~Execution() {
  if (stop_recording_) cluster_.record_read_breakdown(false);
}

void Execution::launch(Seconds start_time) {
  const auto start = [this](Seconds) {
    for (ProcessId p = 0; p < states_.size(); ++p) pull_next_task(p);
  };
  if (start_time <= cluster_.simulator().now()) {
    start(start_time);
  } else {
    cluster_.simulator().at(start_time, start);
  }
}

Seconds Execution::run_until_done() { return cluster_.simulator().run_until(done_); }

ExecutionResult Execution::take_result() {
  result_.makespan = 0;
  for (Seconds t : result_.process_finish_time) result_.makespan = std::max(result_.makespan, t);
  return std::move(result_);
}

/// Pull a task and start reading its inputs; a kWait retries later. Under
/// prefetch, a pull made while a task computes is that cycle's reads event,
/// so a kDone there completes the event instead of retiring the process
/// (the cycle does once the compute ends).
void Execution::pull_next_task(ProcessId p) {
  const Pull r = source_.pull(p, cluster_.simulator().now());
  switch (r.kind) {
    case Pull::Kind::kDone:
      if (config_.prefetch && states_[p].computing != kInvalidTask) {
        states_[p].task = kInvalidTask;
        cycle_event(p);
      } else {
        retire_process(p);
      }
      return;
    case Pull::Kind::kWait:
      OPASS_REQUIRE(r.retry_after > 0, "wait must carry a positive retry delay");
      cluster_.simulator().after(r.retry_after, [this, p](Seconds) { pull_next_task(p); });
      return;
    case Pull::Kind::kTask:
      break;
  }
  OPASS_REQUIRE(r.task < tasks_.size(), "task source returned unknown task");
  states_[p].task = r.task;
  states_[p].next_input = 0;
  states_[p].task_start = cluster_.simulator().now();
  ++result_.tasks_executed;
  read_next_input(p);
}

/// Source drained for this process: record its finish (the last process to
/// drain ends the job).
void Execution::retire_process(ProcessId p) {
  OPASS_CHECK(!retired_[p], "process retired twice");
  retired_[p] = 1;
  result_.process_finish_time[p] = cluster_.simulator().now();
  done_ = ++drained_ == states_.size();
}

/// One task fully processed: record its span and pull the next.
void Execution::task_complete(ProcessId p) {
  result_.task_spans.push_back(
      {p, states_[p].task, states_[p].task_start, cluster_.simulator().now()});
  pull_next_task(p);
}

void Execution::read_next_input(ProcessId p) {
  ProcState& st = states_[p];
  const Task& task = tasks_[st.task];
  if (st.next_input >= task.inputs.size()) {
    if (config_.prefetch) {
      // Bootstrap (nothing computing yet) starts the first cycle; reads
      // finishing inside a cycle are the cycle's second join event.
      if (st.computing == kInvalidTask) {
        reads_finished_prefetch(p);
      } else {
        cycle_event(p);
      }
      return;
    }
    // All inputs in memory: spend the compute time, then continue.
    if (task.compute_time > 0) {
      emit(ProbeKind::kOpBegin, p);
      cluster_.simulator().after(task.compute_time, [this, p](Seconds) {
        emit(ProbeKind::kOpEnd, p);
        task_complete(p);
      });
    } else {
      task_complete(p);
    }
    return;
  }

  const dfs::ChunkId cid = task.inputs[st.next_input++];
  issue_read(p, cid);
}

// --- prefetch (depth-1 read-ahead) mode ---

/// Inputs of st.task are in memory: start its compute and overlap the next
/// task's reads; the cycle advances when both join events fire.
void Execution::reads_finished_prefetch(ProcessId p) {
  ProcState& st = states_[p];
  st.computing = st.task;
  st.computing_start = st.task_start;
  const Task& task = tasks_[st.computing];
  st.events_pending = 2;  // event A: compute; event B: next task's reads

  if (task.compute_time > 0) {
    emit(ProbeKind::kOpBegin, p);
    cluster_.simulator().after(
        task.compute_time, [this, p, t = st.computing, s = st.computing_start](Seconds end) {
          emit(ProbeKind::kOpEnd, p);
          result_.task_spans.push_back({p, t, s, end});
          cycle_event(p);
        });
  }

  // Event B: fetch the next task's inputs while computing (fires
  // cycle_event itself, directly for kDone or after the reads land).
  pull_next_task(p);

  if (task.compute_time <= 0) {  // A is trivial
    result_.task_spans.push_back(
        {p, st.computing, st.computing_start, cluster_.simulator().now()});
    cycle_event(p);
  }
}

void Execution::cycle_event(ProcessId p) {
  ProcState& st = states_[p];
  OPASS_CHECK(st.events_pending > 0, "cycle barrier underflow");
  if (--st.events_pending > 0) return;
  st.computing = kInvalidTask;
  if (st.task == kInvalidTask) {
    retire_process(p);
    return;
  }
  // The prefetched task's inputs are in memory: it becomes the computing
  // task of the next cycle.
  reads_finished_prefetch(p);
}

void Execution::issue_read(ProcessId p, dfs::ChunkId cid) {
  // Serve from live replicas only; a node that failed mid-run is skipped
  // (metadata-level re-replication is the NameNode's job, not ours).
  ProcState& st = states_[p];
  const dfs::NodeId reader = result_.process_node[p];
  const dfs::NodeId server =
      dfs::choose_serving_node(nn_.chunk(cid), reader, cluster_.inflight_per_node(),
                               config_.replica_choice, rng_, cluster_.failed_nodes());
  const Bytes bytes = nn_.chunk(cid).size;

  sim::ReadRecord& rec = st.read;
  rec = {};
  rec.process = p;
  rec.reader_node = reader;
  rec.serving_node = server;
  rec.chunk = cid;
  rec.task = st.task;
  rec.bytes = bytes;
  rec.issue_time = cluster_.simulator().now();
  rec.local = server == reader;

  emit(ProbeKind::kOpBegin, p);
  cluster_.read(
      reader, server, bytes,
      [this, p](Seconds end) {
        emit(ProbeKind::kOpEnd, p);
        sim::ReadRecord& done = states_[p].read;
        done.end_time = end;
        result_.trace.add(done);
        if (config_.record_read_breakdown)
          result_.read_breakdowns.push_back(cluster_.last_read_breakdown());
        read_next_input(p);
      },
      [this, p](Seconds) {
        // Server died mid-read: retry on another replica.
        emit(ProbeKind::kOpEnd, p);
        ++result_.read_failures;
        issue_read(p, states_[p].read.chunk);
      });
}

/// One operation of process `p` began or ended; the unprobed hot path pays
/// one branch.
void Execution::emit(ProbeKind kind, ProcessId p) const {
  if (config_.probe != nullptr)
    config_.probe->on_event({cluster_.simulator().now(), kind, p, 0, 0});
}

ExecutionResult execute(sim::Cluster& cluster, const dfs::NameNode& nn,
                        const std::vector<Task>& tasks, TaskSource& source, Rng& rng,
                        ExecutorConfig config) {
  OPASS_REQUIRE(cluster.simulator().active_flows() == 0,
                "cluster must be idle before an execution");
  Execution execution(cluster, nn, tasks, source, rng, config);
  execution.launch(cluster.simulator().now());
  cluster.run();
  return execution.take_result();
}

}  // namespace opass::runtime
