#include "mpi/master_worker.hpp"

#include <algorithm>
#include <memory>

#include "common/require.hpp"
#include "dfs/replica_choice.hpp"

namespace opass::mpi {

namespace {

constexpr Tag kRequestTag = 1;
constexpr Tag kGrantTag = 2;
constexpr std::uint64_t kStop = UINT64_MAX;
constexpr Bytes kRequestBytes = 64;  ///< REQUEST wire size
constexpr Bytes kGrantBytes = 128;   ///< GRANT / STOP wire size

/// Heap-pinned state machine; execute() joins before returning, so raw
/// `this` captures in simulator callbacks are safe.
class Session {
 public:
  Session(sim::Cluster& cluster, const dfs::NameNode& nn,
          const std::vector<runtime::Task>& tasks, runtime::TaskSource& source, Comm& comm,
          Rng& rng)
      : cluster_(cluster), nn_(nn), tasks_(tasks), source_(source), comm_(comm), rng_(rng) {
    OPASS_REQUIRE(comm_.size() >= 2, "master-worker needs a master and a worker");
    workers_ = comm_.size() - 1;
    result_.exec.process_finish_time.assign(workers_, 0);
    states_.resize(workers_);
  }

  MasterWorkerResult run() {
    const Bytes sent_before = comm_.bytes_sent();
    const std::uint64_t msgs_before = comm_.messages_sent();

    master_wait();
    for (Rank w = 1; w <= workers_; ++w) request_task(w);
    cluster_.run();

    result_.scheduler_messages = comm_.messages_sent() - msgs_before;
    result_.scheduler_bytes = comm_.bytes_sent() - sent_before;
    result_.exec.makespan = 0;
    for (Seconds t : result_.exec.process_finish_time)
      result_.exec.makespan = std::max(result_.exec.makespan, t);
    return std::move(result_);
  }

 private:
  struct WorkerState {
    runtime::TaskId task = runtime::kInvalidTask;
    std::size_t next_input = 0;
  };

  // --- master side ---

  void master_wait() {
    if (stops_sent_ == workers_) return;  // every worker told to stop
    comm_.recv(0, kAnySource, kRequestTag, [this](Message msg) {
      respond(msg.source);
      master_wait();
    });
  }

  /// Decide what worker `worker` gets; a kWait source re-polls later.
  void respond(Rank worker) {
    const auto process = static_cast<runtime::ProcessId>(worker - 1);
    const auto r = source_.pull(process, cluster_.simulator().now());
    switch (r.kind) {
      case runtime::Pull::Kind::kTask:
        ++result_.exec.tasks_executed;
        comm_.send(0, worker, kGrantTag, kGrantBytes, r.task);
        return;
      case runtime::Pull::Kind::kWait:
        cluster_.simulator().after(r.retry_after,
                                   [this, worker](Seconds) { respond(worker); });
        return;
      case runtime::Pull::Kind::kDone:
        ++stops_sent_;
        comm_.send(0, worker, kGrantTag, kGrantBytes, kStop);
        return;
    }
  }

  // --- worker side ---

  void request_task(Rank worker) {
    comm_.send(worker, 0, kRequestTag, kRequestBytes, 0);
    comm_.recv(worker, 0, kGrantTag, [this, worker](Message msg) {
      if (msg.value == kStop) {
        result_.exec.process_finish_time[worker - 1] = cluster_.simulator().now();
        return;
      }
      OPASS_REQUIRE(msg.value < tasks_.size(), "master granted an unknown task");
      WorkerState& st = states_[worker - 1];
      st.task = static_cast<runtime::TaskId>(msg.value);
      st.next_input = 0;
      read_next_input(worker);
    });
  }

  void read_next_input(Rank worker) {
    WorkerState& st = states_[worker - 1];
    const runtime::Task& task = tasks_[st.task];
    if (st.next_input >= task.inputs.size()) {
      if (task.compute_time > 0) {
        cluster_.simulator().after(task.compute_time,
                                   [this, worker](Seconds) { request_task(worker); });
      } else {
        request_task(worker);
      }
      return;
    }
    issue_read(worker, task.inputs[st.next_input++]);
  }

  /// Read `cid` from a live replica, as the executor does: a server that
  /// fails mid-read counts in read_failures and the read retries on another
  /// replica.
  void issue_read(Rank worker, dfs::ChunkId cid) {
    const dfs::ChunkInfo& chunk = nn_.chunk(cid);
    const dfs::NodeId reader = comm_.node_of(worker);
    const dfs::NodeId server =
        dfs::choose_serving_node(chunk, reader, cluster_.inflight_per_node(),
                                 dfs::ReplicaChoice::kRandom, rng_, cluster_.failed_nodes());

    sim::ReadRecord rec;
    rec.process = worker - 1;
    rec.reader_node = reader;
    rec.serving_node = server;
    rec.chunk = cid;
    rec.bytes = chunk.size;
    rec.issue_time = cluster_.simulator().now();
    rec.local = server == reader;

    cluster_.read(
        reader, server, chunk.size,
        [this, worker, rec](Seconds end) mutable {
          rec.end_time = end;
          result_.exec.trace.add(rec);
          read_next_input(worker);
        },
        [this, worker, cid](Seconds) {
          ++result_.exec.read_failures;
          issue_read(worker, cid);
        });
  }

  sim::Cluster& cluster_;
  const dfs::NameNode& nn_;
  const std::vector<runtime::Task>& tasks_;
  runtime::TaskSource& source_;
  Comm& comm_;
  Rng& rng_;
  Rank workers_ = 0;
  Rank stops_sent_ = 0;
  std::vector<WorkerState> states_;
  MasterWorkerResult result_;
};

}  // namespace

MasterWorkerResult run_master_worker(sim::Cluster& cluster, const dfs::NameNode& nn,
                                     const std::vector<runtime::Task>& tasks,
                                     runtime::TaskSource& source, Comm& comm, Rng& rng) {
  OPASS_REQUIRE(cluster.simulator().active_flows() == 0,
                "cluster must be idle before an execution");
  Session session(cluster, nn, tasks, source, comm, rng);
  return session.run();
}

}  // namespace opass::mpi
