// Depth-1 read-ahead (I/O–compute overlap) in the executor.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace opass::runtime {
namespace {

struct PrefetchFixture : ::testing::Test {
  PrefetchFixture()
      : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(3) {
    params.disk_bandwidth = 64.0 * kMiB;  // 1 s per uncontended local chunk
    params.nic_bandwidth = 64.0 * kMiB;
    params.disk_beta = 0.0;
    params.seek_latency = 0.0;
    params.remote_latency = 0.0;
    params.remote_stream_cap = 0.0;
  }

  std::vector<Task> make_tasks(std::uint32_t chunks, Seconds compute) {
    const auto fid =
        nn.create_file(std::string("d").append(std::to_string(nn.file_count())),
                       chunks * kDefaultChunkSize, policy, rng);
    auto tasks = single_input_tasks(nn, {fid}, compute);
    return tasks;
  }

  ExecutionResult run(const std::vector<Task>& tasks, const Assignment& a, bool prefetch) {
    sim::Cluster cluster(4, params);
    StaticAssignmentSource source(a);
    ExecutorConfig cfg;
    cfg.prefetch = prefetch;
    Rng exec_rng(7);
    return execute(cluster, nn, tasks, source, exec_rng, cfg);
  }

  dfs::NameNode nn;
  dfs::RoundRobinPlacement policy;
  Rng rng;
  sim::ClusterParams params;
};

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One "process task start end" line per task span, times at full precision.
std::string span_lines(const ExecutionResult& result) {
  std::string lines;
  for (const TaskSpan& s : result.task_spans)
    lines += std::to_string(s.process) + " " + std::to_string(s.task) + " " + exact(s.start) +
             " " + exact(s.end) + "\n";
  return lines;
}

/// Each process's finish time at full precision, space-terminated.
std::string finish_times(const ExecutionResult& result) {
  std::string times;
  for (Seconds t : result.process_finish_time) times += exact(t) + " ";
  return times;
}

TEST_F(PrefetchFixture, AllTasksStillRunExactlyOnce) {
  const auto tasks = make_tasks(12, 0.5);
  const auto result = run(tasks, rank_interval_assignment(12, 4), true);
  EXPECT_EQ(result.tasks_executed, 12u);
  EXPECT_EQ(result.trace.size(), 12u);
  std::vector<int> seen(12, 0);
  for (const auto& r : result.trace.records()) ++seen[r.chunk];
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST_F(PrefetchFixture, OverlapHidesIoUnderCompute) {
  // Fully local assignment (round-robin layout: chunk c has a replica on
  // node c%4): 4 tasks per process, 1 s local read, 2 s compute.
  // Sequential: 4 * (1 + 2) = 12 s. Prefetch: 1 + 4*2 = 9 s (reads hidden
  // under compute).
  const auto tasks = make_tasks(16, 2.0);
  Assignment local(4);
  for (TaskId t = 0; t < 16; ++t) local[t % 4].push_back(t);
  const auto seq = run(tasks, local, false);
  const auto pre = run(tasks, local, true);
  EXPECT_GT(seq.makespan, pre.makespan + 1.5);
  EXPECT_NEAR(seq.makespan, 12.0, 0.1);
  EXPECT_NEAR(pre.makespan, 9.0, 0.1);
}

TEST_F(PrefetchFixture, NoComputeMeansNoBenefit) {
  // Pure I/O: reads cannot overlap with anything; both modes serialize the
  // process's reads and end at the same time. Task 8 reads nothing: under
  // prefetch, the pull made when task 0's compute starts returns it with its
  // inputs already in memory, so it takes the compute slot within the same
  // event. The prefetch run's spans and finish times are pinned at full
  // precision, as recorded before the prefetch cycle folded into the
  // executor's one loop.
  auto tasks = make_tasks(8, 0.0);
  tasks.emplace_back().id = 8;
  auto a = rank_interval_assignment(8, 4);
  a[0].insert(a[0].begin() + 1, 8);
  const auto seq = run(tasks, a, false);
  const auto pre = run(tasks, a, true);
  EXPECT_NEAR(seq.makespan, pre.makespan, 1e-6);
  EXPECT_EQ(pre.tasks_executed, 9u);
  EXPECT_EQ(span_lines(pre),
            "1 2 0 1\n"
            "3 6 0 1\n"
            "0 0 0 2\n"
            "0 8 2 2\n"
            "2 4 0 2\n"
            "1 3 1 3\n"
            "3 7 1 3\n"
            "0 1 2 3\n"
            "2 5 2 3\n");
  EXPECT_EQ(finish_times(pre), "3 3 3 3 ");
}

TEST_F(PrefetchFixture, SingleTaskPerProcess) {
  const auto tasks = make_tasks(4, 1.0);
  const auto result = run(tasks, rank_interval_assignment(4, 4), true);
  EXPECT_EQ(result.tasks_executed, 4u);
  // 1 s read + 1 s compute, no second task to overlap.
  EXPECT_NEAR(result.makespan, 2.0, 0.1);
}

TEST_F(PrefetchFixture, EmptyAssignmentFinishesImmediately) {
  const auto tasks = make_tasks(2, 1.0);
  const auto result = run(tasks, Assignment{{}, {}, {}, {}}, true);
  EXPECT_EQ(result.tasks_executed, 0u);
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

TEST_F(PrefetchFixture, MultiInputTasksPrefetchWholeTask) {
  // 2 tasks of 3 inputs each on one process: sequential = 2*(3+2) = 10 s;
  // prefetch = 3 + max(3,2) + 2 = 8 s.
  auto chunks = make_tasks(6, 0.0);
  std::vector<Task> tasks(2);
  for (int i = 0; i < 2; ++i) {
    tasks[i].id = static_cast<TaskId>(i);
    tasks[i].compute_time = 2.0;
    for (int k = 0; k < 3; ++k)
      tasks[i].inputs.push_back(chunks[static_cast<std::size_t>(3 * i + k)].inputs[0]);
  }
  const auto seq = run(tasks, Assignment{{0, 1}, {}, {}, {}}, false);
  const auto pre = run(tasks, Assignment{{0, 1}, {}, {}, {}}, true);
  EXPECT_GT(seq.makespan, pre.makespan + 1.0);
}

/// Replays `assignment`, but answers kWait for 0.3 * (p + 1) s on process
/// p's first pull and on every third pull after it. Under prefetch that is
/// the bootstrap pull, a pull made while a task computes and, with four
/// tasks per process, the pull that finds the process drained.
class WaitingSource final : public TaskSource {
 public:
  explicit WaitingSource(Assignment assignment)
      : pulls_(assignment.size(), 0), inner_(std::move(assignment)) {}

  std::optional<TaskId> next_task(ProcessId process, Seconds now) override {
    return inner_.next_task(process, now);
  }

  Pull pull(ProcessId process, Seconds now) override {
    if (pulls_[process]++ % 3 == 0) return Pull::wait(0.3 * (process + 1));
    return TaskSource::pull(process, now);
  }

 private:
  std::vector<std::uint32_t> pulls_;
  StaticAssignmentSource inner_;
};

TEST_F(PrefetchFixture, WaitingSourceOnFirstAndMidCyclePulls) {
  // Four local tasks per process: 1 s read, 1 s compute. Process 3's 1.2 s
  // waits outlast a compute; the others' do not. Every span (process, task,
  // start, end), finish time and the makespan are pinned at full precision,
  // as recorded before the prefetch pull was folded into the executor's one
  // pull path.
  const auto tasks = make_tasks(16, 1.0);
  Assignment local(4);
  for (TaskId t = 0; t < 16; ++t) local[t % 4].push_back(t);
  sim::Cluster cluster(4, params);
  WaitingSource source(local);
  ExecutorConfig cfg;
  cfg.prefetch = true;
  Rng exec_rng(7);
  const auto result = execute(cluster, nn, tasks, source, exec_rng, cfg);
  EXPECT_EQ(result.tasks_executed, 16u);

  EXPECT_EQ(span_lines(result),
            "0 0 0.29999999999999999 2.2999999999999998\n"
            "1 1 0.59999999999999998 2.5999999999999996\n"
            "2 2 0.89999999999999991 2.8999999999999999\n"
            "3 3 1.2 3.1999999999999997\n"
            "0 4 1.3 3.2999999999999998\n"
            "1 5 1.6000000000000001 3.5999999999999996\n"
            "2 6 1.8999999999999999 3.8999999999999999\n"
            "3 7 2.2000000000000002 4.1999999999999993\n"
            "0 8 2.5999999999999996 4.5999999999999996\n"
            "1 9 3.1999999999999997 5.1999999999999993\n"
            "0 12 3.5999999999999996 5.5999999999999996\n"
            "2 10 3.7999999999999998 5.7999999999999989\n"
            "1 13 4.1999999999999993 6.1999999999999993\n"
            "3 11 4.3999999999999995 6.3999999999999995\n"
            "2 14 4.7999999999999998 6.7999999999999989\n"
            "3 15 5.3999999999999995 7.3999999999999995\n");
  // Process 3 drains at 7.6 s, after its last compute (7.4 s): the pull that
  // finds it drained waited 1.2 s.
  EXPECT_EQ(finish_times(result),
            "5.5999999999999996 6.1999999999999993 6.7999999999999989 7.5999999999999996 ");
  EXPECT_EQ(exact(result.makespan), "7.5999999999999996");
}

TEST_F(PrefetchFixture, WorksWithDynamicSource) {
  const auto tasks = make_tasks(12, 0.3);
  sim::Cluster cluster(4, params);
  Rng q(5);
  MasterWorkerSource source(12, q);
  ExecutorConfig cfg;
  cfg.prefetch = true;
  Rng exec_rng(7);
  const auto result = execute(cluster, nn, tasks, source, exec_rng, cfg);
  EXPECT_EQ(result.tasks_executed, 12u);
}

}  // namespace
}  // namespace opass::runtime
