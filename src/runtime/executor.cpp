#include "runtime/executor.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace opass::runtime {

struct Execution::ProcState {
  TaskId task = kInvalidTask;       ///< pulled task whose inputs are being read
  std::size_t next_input = 0;
  Seconds task_start = 0;           ///< pull time of `task`
  TaskId computing = kInvalidTask;  ///< the compute slot's task, if any
  Seconds computing_start = 0;      ///< pull time of `computing`
  bool inputs_ready = false;        ///< `task`'s inputs are in; it waits for the slot
  bool pending = false;             ///< last pull answered kPending
  bool drained = false;             ///< a pull answered kDone
  /// The process's one in-flight read (reads are sequential). Kept here so
  /// the cluster callbacks capture only {this, p} and stay within
  /// std::function's small buffer: no heap allocation per read.
  sim::ReadRecord read;
};

Execution::Execution(sim::Cluster& cluster, const dfs::NameNode& nn,
                     const std::vector<Task>& tasks, TaskSource& source, Rng& rng,
                     const ExecutorConfig& config)
    : cluster_(cluster), nn_(nn), tasks_(tasks), source_(source), rng_(rng), config_(config) {
  const auto placed = static_cast<std::uint32_t>(config.placement.size());
  OPASS_REQUIRE(placed == 0 || config.process_count == 0 || config.process_count == placed,
                "ExecutorConfig.process_count must be 0 or the placement's size");
  std::uint32_t m = placed ? placed : config.process_count;
  if (m == 0) m = cluster.node_count();
  OPASS_REQUIRE(m > 0, "need at least one process");
  result_.process_node.resize(m);
  for (ProcessId p = 0; p < m; ++p) {
    result_.process_node[p] = config.placement.empty()
                                  ? static_cast<dfs::NodeId>(p % cluster.node_count())
                                  : config.placement[p];
    OPASS_REQUIRE(result_.process_node[p] < cluster.node_count(),
                  "process placed on an unknown node");
  }
  result_.process_finish_time.assign(m, 0);
  // Each task runs once and reads each of its inputs once: size the trace
  // and the spans for the whole table.
  std::size_t reads = 0;
  for (const Task& task : tasks) reads += task.inputs.size();
  result_.trace.reserve(reads);
  result_.task_spans.reserve(tasks.size());
  if (config.record_read_breakdown) result_.read_breakdowns.reserve(reads);
  states_.resize(m);
  if (config.record_read_breakdown && !cluster.read_breakdown_recording()) {
    cluster.record_read_breakdown(true);
    stop_recording_ = true;
  }
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

void Execution::resume(ProcessId p) {
  OPASS_REQUIRE(p < states_.size() && states_[p].pending,
                "resume needs a process whose last pull answered kPending");
  states_[p].pending = false;
  pull_next_task(p);
}

/// Pull a task and start reading its inputs; a kWait retries later, a
/// kPending waits for the source's resume(p), and a kDone retires the
/// process once its compute slot is empty.
void Execution::pull_next_task(ProcessId p) {
  ProcState& st = states_[p];
  const Pull r = source_.pull(p, cluster_.simulator().now());
  switch (r.kind) {
    case Pull::Kind::kDone:
      OPASS_CHECK(!st.drained, "process drained twice");
      st.drained = true;
      if (st.computing == kInvalidTask) retire_process(p);
      return;
    case Pull::Kind::kWait:
      OPASS_REQUIRE(r.retry_after > 0, "wait must carry a positive retry delay");
      cluster_.simulator().after(r.retry_after, [this, p](Seconds) { pull_next_task(p); });
      return;
    case Pull::Kind::kPending:
      st.pending = true;
      return;
    case Pull::Kind::kTask:
      break;
  }
  OPASS_REQUIRE(r.task < tasks_.size(), "task source returned unknown task");
  st.task = r.task;
  st.next_input = 0;
  st.task_start = cluster_.simulator().now();
  ++result_.tasks_executed;
  read_next_input(p);
}

/// Source drained for this process and its compute slot empty: record its
/// finish (the last process to retire ends the job).
void Execution::retire_process(ProcessId p) {
#if defined(OPASS_SANITIZE_BUILD)
  // Sanitizer builds audit each retirement: the process holds no task being
  // read, none computing or waiting for the slot, and no pull is out.
  const ProcState& st = states_[p];
  OPASS_CHECK(st.drained && st.task == kInvalidTask && st.computing == kInvalidTask &&
                  !st.inputs_ready && !st.pending,
              "retiring process still holds a task or a pull");
#endif
  result_.process_finish_time[p] = cluster_.simulator().now();
  done_ = ++finished_ == states_.size();
}

/// Read the pulled task's next input; once all are in, the task takes the
/// compute slot, or waits for it while a prefetching process still computes.
void Execution::read_next_input(ProcessId p) {
  ProcState& st = states_[p];
  const Task& task = tasks_[st.task];
  if (st.next_input < task.inputs.size()) {
    issue_read(p, task.inputs[st.next_input++]);
  } else if (st.computing == kInvalidTask) {
    start_compute(p);
  } else {
    st.inputs_ready = true;
  }
}

/// Move the task whose inputs are in into the compute slot and spend its
/// compute time. With prefetch on, pull the next task now, so its reads
/// overlap the compute.
void Execution::start_compute(ProcessId p) {
  ProcState& st = states_[p];
  st.computing = st.task;
  st.computing_start = st.task_start;
  st.task = kInvalidTask;
  st.inputs_ready = false;
  const Seconds compute_time = tasks_[st.computing].compute_time;
  if (compute_time > 0) {
    emit(ProbeKind::kOpBegin, p);
    cluster_.simulator().after(compute_time, [this, p](Seconds) {
      emit(ProbeKind::kOpEnd, p);
      compute_done(p);
    });
  }
  if (config_.prefetch) pull_next_task(p);
  if (compute_time <= 0) compute_done(p);
}

/// The compute slot's task is done: record its span, then pull (without
/// prefetch), start the task whose inputs came in meanwhile, or retire the
/// process whose pull already answered kDone.
void Execution::compute_done(ProcessId p) {
  ProcState& st = states_[p];
  result_.task_spans.push_back({p, st.computing, st.computing_start, cluster_.simulator().now()});
  st.computing = kInvalidTask;
  if (!config_.prefetch) {
    pull_next_task(p);
  } else if (st.inputs_ready) {
    start_compute(p);
  } else if (st.drained) {
    retire_process(p);
  }
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
