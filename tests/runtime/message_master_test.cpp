// The message-passing master (runtime::MessageMasterSource): every dispatch
// is a REQUEST and a GRANT or STOP on the simulated network, and the workers
// run runtime::Execution's one loop, so a message-master run keeps what any
// run records (task spans, each read's task, read breakdowns) and can
// prefetch.
#include "runtime/message_master.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "common/stats.hpp"
#include "obs/spans.hpp"
#include "opass/opass.hpp"
#include "workload/dataset.hpp"

namespace opass::runtime {
namespace {

struct MasterRun {
  ExecutionResult exec;
  std::uint64_t messages = 0;
  Bytes bytes = 0;
};

struct MwFixture : ::testing::Test {
  static constexpr std::uint32_t kNodes = 9;  // node 0 = master, 8 workers
  MwFixture()
      : nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize), rng(5) {
    tasks = workload::make_single_data_workload(nn, 40, policy, rng);
    // Processes 0..7 run on nodes 1..8; the master has node 0 to itself.
    for (dfs::NodeId n = 1; n < kNodes; ++n) worker_placement.push_back(n);
  }

  /// Run `job` to completion on the workers, every pull dispatched by a
  /// message master on node 0 that wraps `inner`.
  MasterRun run_master(sim::Cluster& cluster, const std::vector<Task>& job, TaskSource& inner,
                       Rng& exec_rng, ExecutorConfig config = {}) {
    config.placement = worker_placement;
    MessageMasterSource master(cluster, inner, /*master=*/0);
    Execution execution(cluster, nn, job, master, exec_rng, config);
    master.attach(execution);
    execution.launch(cluster.simulator().now());
    cluster.run();
    return {execution.take_result(), master.messages(), master.bytes()};
  }

  MasterRun run_queue(sim::Cluster& cluster, ExecutorConfig config = {}) {
    Rng mw_rng(1);
    MasterWorkerSource source(static_cast<std::uint32_t>(tasks.size()), mw_rng);
    return run_master(cluster, tasks, source, rng, config);
  }

  dfs::NameNode nn;
  dfs::RandomPlacement policy;
  Rng rng;
  std::vector<Task> tasks;
  core::ProcessPlacement worker_placement;
};

TEST_F(MwFixture, ExecutesEveryTaskExactlyOnce) {
  sim::Cluster cluster(kNodes);
  const auto result = run_queue(cluster);
  EXPECT_EQ(result.exec.tasks_executed, tasks.size());
  std::vector<int> seen(tasks.size(), 0);
  for (const auto& r : result.exec.trace.records()) ++seen[r.chunk];
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST_F(MwFixture, AllWorkersFinishAndMakespanIsMax) {
  sim::Cluster cluster(kNodes);
  const auto result = run_queue(cluster);
  ASSERT_EQ(result.exec.process_finish_time.size(), 8u);
  Seconds max_finish = 0;
  for (Seconds t : result.exec.process_finish_time) {
    EXPECT_GT(t, 0.0);
    max_finish = std::max(max_finish, t);
  }
  EXPECT_DOUBLE_EQ(result.exec.makespan, max_finish);
}

TEST_F(MwFixture, SchedulerTrafficIsAccounted) {
  sim::Cluster cluster(kNodes);
  const auto result = run_queue(cluster);
  // Each task: one REQUEST + one GRANT; each worker: one final REQUEST+STOP.
  EXPECT_EQ(result.messages, 2 * (tasks.size() + 8));
  EXPECT_EQ(result.bytes, (64u + 128u) * (tasks.size() + 8));
}

TEST_F(MwFixture, SchedulerOverheadNegligibleVsDataMovement) {
  // The paper's Section V-C2 argument, quantified: scheduler bytes are a
  // vanishing fraction of data bytes.
  sim::Cluster cluster(kNodes);
  const auto result = run_queue(cluster);
  Bytes data = 0;
  for (const auto& r : result.exec.trace.records()) data += r.bytes;
  EXPECT_LT(static_cast<double>(result.bytes), 1e-4 * static_cast<double>(data));
}

TEST_F(MwFixture, OpassGuidelineSourceImprovesLocality) {
  Rng assign_rng(3);
  const auto plan = core::plan({&nn, &tasks, &worker_placement, &assign_rng});

  sim::Cluster c1(kNodes);
  Rng mw_rng(1);
  MasterWorkerSource base_src(static_cast<std::uint32_t>(tasks.size()), mw_rng);
  Rng e1(2);
  const auto base = run_master(c1, tasks, base_src, e1);

  sim::Cluster c2(kNodes);
  core::OpassDynamicSource opass_src(plan.assignment, nn, tasks, worker_placement);
  Rng e2(2);
  const auto opass = run_master(c2, tasks, opass_src, e2);

  EXPECT_GT(opass.exec.trace.local_fraction(), base.exec.trace.local_fraction());
  EXPECT_LT(summarize(opass.exec.trace.io_times()).mean,
            summarize(base.exec.trace.io_times()).mean);
}

TEST_F(MwFixture, ComputeTimeDelaysRequests) {
  auto timed = tasks;
  for (auto& t : timed) t.compute_time = 1.0;
  sim::Cluster cluster(kNodes);
  Rng mw_rng(1);
  MasterWorkerSource source(static_cast<std::uint32_t>(timed.size()), mw_rng);
  const auto result = run_master(cluster, timed, source, rng);
  // 40 tasks, 8 workers -> ~5 tasks each; each task costs >= 1 s compute.
  EXPECT_GE(result.exec.makespan, 5.0);
}

TEST_F(MwFixture, ReadsFailOverWhenTheirServerFails) {
  // A storage node fails mid-run: the reads it was serving, and any chosen
  // for it afterwards, move to live replicas, so every task's read lands
  // once and every worker finishes.
  std::uint32_t failures = 0;
  for (dfs::NodeId victim = 1; victim < kNodes; ++victim) {
    sim::Cluster cluster(kNodes);
    cluster.fail_node(victim, 1.5);
    Rng mw_rng(1);
    MasterWorkerSource source(static_cast<std::uint32_t>(tasks.size()), mw_rng);
    Rng exec_rng(5);
    const auto result = run_master(cluster, tasks, source, exec_rng);
    EXPECT_EQ(result.exec.tasks_executed, tasks.size());
    std::vector<int> seen(tasks.size(), 0);
    for (const auto& r : result.exec.trace.records()) {
      ++seen[r.chunk];
      if (r.issue_time >= 1.5) {
        EXPECT_NE(r.serving_node, victim);
      }
    }
    for (int s : seen) EXPECT_EQ(s, 1) << "victim " << victim;
    for (Seconds t : result.exec.process_finish_time) EXPECT_GT(t, 0.0) << "victim " << victim;
    failures += result.exec.read_failures;
  }
  EXPECT_GT(failures, 0u);  // some victim was serving when it failed
}

// --- what the one loop records for a message-master run --------------------

TEST_F(MwFixture, RecordsOneTaskSpanPerTaskAndEachReadsTask) {
  sim::Cluster cluster(kNodes);
  const auto result = run_queue(cluster);
  ASSERT_EQ(result.exec.task_spans.size(), tasks.size());
  std::vector<int> spans(tasks.size(), 0);
  for (const TaskSpan& s : result.exec.task_spans) {
    ASSERT_LT(s.task, tasks.size());
    ++spans[s.task];
    // A task starts when its GRANT arrives, after a REQUEST round trip.
    EXPECT_GT(s.start, 0.0);
    EXPECT_GT(s.end, s.start);
  }
  for (int n : spans) EXPECT_EQ(n, 1);
  for (const auto& r : result.exec.trace.records()) {
    ASSERT_LT(r.task, tasks.size());
    const TaskInputs& inputs = tasks[r.task].inputs;
    EXPECT_NE(std::find(inputs.begin(), inputs.end(), r.chunk), inputs.end());
  }
}

TEST_F(MwFixture, SpanLogTilesTheRunExactly) {
  sim::Cluster cluster(kNodes);
  ExecutorConfig config;
  config.record_read_breakdown = true;
  const auto result = run_queue(cluster, config);
  ASSERT_EQ(result.exec.read_breakdowns.size(), result.exec.trace.size());

  obs::SpanLog log;
  obs::append_execution_spans(log, result.exec, tasks, cluster);
  EXPECT_EQ(log.max_end_ticks(), sim::to_ticks(result.exec.task_spans.back().end));
  std::size_t task_spans = 0, read_spans = 0;
  std::int64_t barrier = 0;
  for (const obs::Span& s : log.spans()) {
    const auto slices = log.breakdown(s);
    ASSERT_FALSE(slices.empty() && s.duration_ticks() > 0) << "span " << s.id;
    std::int64_t sum = 0;
    for (const obs::AttrSlice& sl : slices) {
      sum += sl.duration_ticks();
      if (sl.kind == obs::AttrKind::kBarrier) barrier += sl.duration_ticks();
    }
    if (!slices.empty()) {
      EXPECT_EQ(sum, s.duration_ticks());
    }
    task_spans += s.kind == obs::SpanKind::kTask;
    read_spans += s.kind == obs::SpanKind::kRead;
  }
  EXPECT_EQ(task_spans, tasks.size());
  EXPECT_EQ(read_spans, result.exec.trace.size());
  // Each REQUEST/GRANT round trip between two tasks is a wait span.
  EXPECT_GT(barrier, 0);
}

TEST_F(MwFixture, PrefetchStillRunsEveryTaskOnce) {
  auto timed = tasks;
  for (auto& t : timed) t.compute_time = 0.5;
  sim::Cluster cluster(kNodes);
  Rng mw_rng(1);
  MasterWorkerSource source(static_cast<std::uint32_t>(timed.size()), mw_rng);
  ExecutorConfig config;
  config.prefetch = true;
  const auto result = run_master(cluster, timed, source, rng, config);
  EXPECT_EQ(result.exec.tasks_executed, timed.size());
  ASSERT_EQ(result.exec.task_spans.size(), timed.size());
  std::vector<int> seen(timed.size(), 0);
  for (const TaskSpan& s : result.exec.task_spans) ++seen[s.task];
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_EQ(result.messages, 2 * (timed.size() + 8));
}

// --- misuse ---------------------------------------------------------------

TEST_F(MwFixture, ResumeRejectsAProcessThatIsNotPending) {
  sim::Cluster cluster(kNodes);
  Rng mw_rng(1);
  MasterWorkerSource source(static_cast<std::uint32_t>(tasks.size()), mw_rng);
  ExecutorConfig config;
  config.placement = worker_placement;
  Execution execution(cluster, nn, tasks, source, rng, config);
  EXPECT_THROW(execution.resume(0), std::invalid_argument);  // never pulled
  execution.launch(0);
  EXPECT_THROW(execution.resume(0), std::invalid_argument);  // reading its task
  EXPECT_THROW(execution.resume(8), std::invalid_argument);  // no process 8
  cluster.run();
  EXPECT_THROW(execution.resume(0), std::invalid_argument);  // retired
}

TEST_F(MwFixture, PullBeforeAttachAndNextTaskAreRejected) {
  sim::Cluster cluster(kNodes);
  Rng mw_rng(1);
  MasterWorkerSource inner(static_cast<std::uint32_t>(tasks.size()), mw_rng);
  MessageMasterSource master(cluster, inner, /*master=*/0);
  // runtime::execute builds its own Execution, which the master never sees.
  EXPECT_THROW(execute(cluster, nn, tasks, master, rng), std::invalid_argument);
  EXPECT_THROW(master.next_task(0, 0.0), std::invalid_argument);
  EXPECT_EQ(master.messages(), 0u);
  EXPECT_THROW((void)MessageMasterSource(cluster, inner, /*master=*/kNodes),
               std::invalid_argument);
}

}  // namespace
}  // namespace opass::runtime
