#include "runtime/executor.hpp"

#include <algorithm>
#include <memory>

#include "common/require.hpp"

namespace opass::runtime {

namespace {

/// Callback-driven state machine for one job. Lives on the heap for the
/// duration of the cluster run; all per-process continuations capture a raw
/// pointer to it, which is safe because execute()/execute_jobs() join before
/// returning.
class Driver {
 public:
  Driver(sim::Cluster& cluster, const dfs::NameNode& nn, const std::vector<Task>& tasks,
         TaskSource& source, Rng& rng, const ExecutorConfig& config)
      : cluster_(cluster), nn_(nn), tasks_(tasks), source_(source), rng_(rng) {
    const std::uint32_t m = config.process_count ? config.process_count : cluster.node_count();
    OPASS_REQUIRE(m > 0, "need at least one process");
    replica_choice_ = config.replica_choice;
    prefetch_ = config.prefetch;
    bsp_ = config.barrier_per_task;
    breakdown_ = config.record_read_breakdown;
    if (breakdown_) cluster.record_read_breakdown(true);
    probe_ = config.probe;
    OPASS_REQUIRE(!(prefetch_ && bsp_), "prefetch and barrier_per_task are exclusive");
    result_.process_finish_time.assign(m, 0);
    result_.barrier_stall.assign(m, 0);
    // Each task runs once and reads each of its inputs once: size the trace
    // and the spans for the whole table.
    std::size_t reads = 0;
    for (const Task& task : tasks) reads += task.inputs.size();
    result_.trace.reserve(reads);
    result_.task_spans.reserve(tasks.size());
    if (breakdown_) result_.read_breakdowns.reserve(reads);
    retired_.assign(m, 0);
    wave_arrival_.assign(m, -1.0);
    wave_active_ = m;
    states_.resize(m);
    for (ProcessId p = 0; p < m; ++p) {
      states_[p].node = static_cast<dfs::NodeId>(p % cluster.node_count());
    }
  }

  /// Launch all processes at `start_time` (>= now).
  void launch(Seconds start_time) {
    if (start_time <= cluster_.simulator().now()) {
      launch_all();
      return;
    }
    cluster_.simulator().at(start_time, [this](Seconds) { launch_all(); });
  }

  /// Collect the result; valid only after the cluster ran to quiescence.
  ExecutionResult take_result() {
    result_.makespan = 0;
    for (Seconds t : result_.process_finish_time)
      result_.makespan = std::max(result_.makespan, t);
    return std::move(result_);
  }

 private:
  struct ProcState {
    dfs::NodeId node = 0;
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

  /// Pull a task and start reading its inputs; a kWait retries later. Under
  /// prefetch, a pull made while a task computes is that cycle's reads
  /// event, so a kDone there completes the event instead of retiring the
  /// process (the cycle does once the compute ends).
  void pull_next_task(ProcessId p) {
    const Pull r = source_.pull(p, cluster_.simulator().now());
    switch (r.kind) {
      case Pull::Kind::kDone:
        if (prefetch_ && states_[p].computing != kInvalidTask) {
          states_[p].task = kInvalidTask;
          cycle_event(p);
        } else {
          retire_process(p);
        }
        return;
      case Pull::Kind::kWait:
        OPASS_REQUIRE(r.retry_after > 0, "wait must carry a positive retry delay");
        cluster_.simulator().after(r.retry_after,
                                   [this, p](Seconds) { pull_next_task(p); });
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

  /// Source drained for this process: record its finish and, under BSP,
  /// shrink the wave (releasing it if everyone left is already parked).
  void retire_process(ProcessId p) {
    result_.process_finish_time[p] = cluster_.simulator().now();
    if (bsp_ && !retired_[p]) {
      retired_[p] = 1;
      OPASS_CHECK(wave_active_ > 0, "wave accounting underflow");
      --wave_active_;
      // If everyone else is already waiting, the shrunken wave releases.
      if (wave_active_ > 0 && wave_arrived_ == wave_active_) release_wave();
    }
  }

  void launch_all() {
    for (ProcessId p = 0; p < states_.size(); ++p) pull_next_task(p);
  }

  /// One task fully processed: either pull the next immediately (async) or
  /// wait at the per-task barrier (BSP).
  void task_complete(ProcessId p) {
    const Seconds now = cluster_.simulator().now();
    result_.task_spans.push_back({p, states_[p].task, states_[p].task_start, now});
    if (!bsp_) {
      pull_next_task(p);
      return;
    }
    wave_arrival_[p] = now;
    ++wave_arrived_;
    if (wave_arrived_ < wave_active_) return;
    release_wave();
  }

  /// Every active process finished its task: everyone pulls the next one.
  /// Retirements (source drained) shrink the wave. Time spent parked at the
  /// barrier is charged to each waiter's barrier_stall (the last arriver's
  /// share is zero by construction).
  void release_wave() {
    const Seconds now = cluster_.simulator().now();
    wave_arrived_ = 0;
    // Reuse the hoisted buffer's capacity, but own it locally for the
    // duration: pull_next_task can reenter release_wave (a zero-input task
    // completes synchronously), and the inner call must not clobber ours.
    std::vector<ProcessId> wave = std::move(wave_buf_);
    wave.clear();
    for (ProcessId p = 0; p < states_.size(); ++p)
      if (!retired_[p]) wave.push_back(p);
    for (ProcessId p : wave) {
      if (wave_arrival_[p] >= 0) {
        result_.barrier_stall[p] += now - wave_arrival_[p];
        wave_arrival_[p] = -1.0;
      }
    }
    for (ProcessId p : wave) pull_next_task(p);
    wave_buf_ = std::move(wave);
  }

  void read_next_input(ProcessId p) {
    ProcState& st = states_[p];
    const Task& task = tasks_[st.task];
    if (st.next_input >= task.inputs.size()) {
      if (prefetch_) {
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

  /// Inputs of st.task are in memory: start its compute and overlap the
  /// next task's reads; the cycle advances when both join events fire.
  void reads_finished_prefetch(ProcessId p) {
    ProcState& st = states_[p];
    st.computing = st.task;
    st.computing_start = st.task_start;
    const Task& task = tasks_[st.computing];
    st.events_pending = 2;  // event A: compute; event B: next task's reads

    if (task.compute_time > 0) {
      emit(ProbeKind::kOpBegin, p);
      cluster_.simulator().after(
          task.compute_time,
          [this, p, t = st.computing, s = st.computing_start](Seconds end) {
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

  void cycle_event(ProcessId p) {
    ProcState& st = states_[p];
    OPASS_CHECK(st.events_pending > 0, "cycle barrier underflow");
    if (--st.events_pending > 0) return;
    st.computing = kInvalidTask;
    if (st.task == kInvalidTask) {
      result_.process_finish_time[p] = cluster_.simulator().now();
      return;
    }
    // The prefetched task's inputs are in memory: it becomes the computing
    // task of the next cycle.
    reads_finished_prefetch(p);
  }

  void issue_read(ProcessId p, dfs::ChunkId cid) {
    // Serve from live replicas only; a node that failed mid-run is skipped
    // (metadata-level re-replication is the NameNode's job, not ours).
    ProcState& st = states_[p];
    const dfs::NodeId server =
        dfs::choose_serving_node(nn_.chunk(cid), st.node, cluster_.inflight_per_node(),
                                 replica_choice_, rng_, cluster_.failed_nodes());
    const Bytes bytes = nn_.chunk(cid).size;

    sim::ReadRecord& rec = st.read;
    rec = {};
    rec.process = p;
    rec.reader_node = st.node;
    rec.serving_node = server;
    rec.chunk = cid;
    rec.task = st.task;
    rec.bytes = bytes;
    rec.issue_time = cluster_.simulator().now();
    rec.local = server == st.node;

    emit(ProbeKind::kOpBegin, p);
    cluster_.read(
        st.node, server, bytes,
        [this, p](Seconds end) {
          emit(ProbeKind::kOpEnd, p);
          sim::ReadRecord& done = states_[p].read;
          done.end_time = end;
          result_.trace.add(done);
          if (breakdown_) result_.read_breakdowns.push_back(cluster_.last_read_breakdown());
          read_next_input(p);
        },
        [this, p](Seconds) {
          // Server died mid-read: retry on another replica.
          emit(ProbeKind::kOpEnd, p);
          ++result_.read_failures;
          issue_read(p, states_[p].read.chunk);
        });
  }

  /// One operation of process `p` began or ended; the unprobed hot path
  /// pays one branch.
  void emit(ProbeKind kind, ProcessId p) const {
    if (probe_ != nullptr) probe_->on_event({cluster_.simulator().now(), kind, p, 0, 0});
  }

  sim::Cluster& cluster_;
  const dfs::NameNode& nn_;
  const std::vector<Task>& tasks_;
  TaskSource& source_;
  Rng& rng_;
  dfs::ReplicaChoice replica_choice_ = dfs::ReplicaChoice::kRandom;
  bool prefetch_ = false;
  bool bsp_ = false;
  bool breakdown_ = false;  ///< copy per-read causal breakdowns into the result
  Probe* probe_ = nullptr;
  std::vector<char> retired_;
  std::vector<Seconds> wave_arrival_;  ///< barrier-park time per process; -1 = not parked
  std::vector<ProcessId> wave_buf_;    ///< reusable wave scratch for release_wave
  std::uint32_t wave_active_ = 0;
  std::uint32_t wave_arrived_ = 0;
  std::vector<ProcState> states_;
  ExecutionResult result_;
};

/// Restores the cluster's breakdown-recording flag when a run returns or
/// throws (a Driver turns it on for its run).
class RecordingScope {
 public:
  explicit RecordingScope(sim::Cluster& cluster)
      : cluster_(cluster), recording_(cluster.read_breakdown_recording()) {}
  ~RecordingScope() { cluster_.record_read_breakdown(recording_); }
  RecordingScope(const RecordingScope&) = delete;
  RecordingScope& operator=(const RecordingScope&) = delete;

 private:
  sim::Cluster& cluster_;
  bool recording_;
};

}  // namespace

ExecutionResult execute(sim::Cluster& cluster, const dfs::NameNode& nn,
                        const std::vector<Task>& tasks, TaskSource& source, Rng& rng,
                        ExecutorConfig config) {
  OPASS_REQUIRE(cluster.simulator().active_flows() == 0,
                "cluster must be idle before an execution");
  const RecordingScope recording(cluster);
  Driver driver(cluster, nn, tasks, source, rng, config);
  driver.launch(cluster.simulator().now());
  cluster.run();
  return driver.take_result();
}

std::vector<ExecutionResult> execute_jobs(sim::Cluster& cluster, const dfs::NameNode& nn,
                                          std::vector<JobSpec> jobs, Rng& rng) {
  OPASS_REQUIRE(!jobs.empty(), "need at least one job");
  OPASS_REQUIRE(cluster.simulator().active_flows() == 0,
                "cluster must be idle before an execution");
  const Seconds base = cluster.simulator().now();
  const RecordingScope recording(cluster);

  // Check (and build a driver for) every job before any launches: a launch
  // puts reads in flight whose callbacks hold the driver.
  std::vector<std::unique_ptr<Driver>> drivers;
  drivers.reserve(jobs.size());
  for (const auto& job : jobs) {
    OPASS_REQUIRE(job.tasks != nullptr && job.source != nullptr,
                  "job needs a task table and a source");
    OPASS_REQUIRE(job.start_time >= 0, "job start time must be non-negative");
    drivers.push_back(
        std::make_unique<Driver>(cluster, nn, *job.tasks, *job.source, rng, job.config));
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) drivers[j]->launch(base + jobs[j].start_time);
  cluster.run();

  std::vector<ExecutionResult> results;
  results.reserve(jobs.size());
  for (auto& d : drivers) results.push_back(d->take_result());
  return results;
}

}  // namespace opass::runtime
