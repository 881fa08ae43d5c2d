// The message-passing master (runtime::MessageMasterSource): every dispatch
// is a REQUEST and a GRANT or STOP on the simulated network, and the workers
// run runtime::Execution's one loop, so a message-master run keeps what any
// run records (task spans, each read's task, read breakdowns) and can
// prefetch.
#include "runtime/message_master.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

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

  // A worker sends its next REQUEST when a compute starts, so the pending
  // pull overlaps the compute. Every span (process, task, start, end), finish
  // time and the makespan are pinned at full precision, as recorded before
  // the prefetch cycle folded into the executor's one loop.
  std::string spans;
  char line[96];
  for (const TaskSpan& s : result.exec.task_spans) {
    std::snprintf(line, sizeof line, "%u %u %.17g %.17g\n", s.process, s.task, s.start, s.end);
    spans += line;
  }
  EXPECT_EQ(spans,
            "7 35 0.0040130789620535711 1.4073464122953869\n"
            "7 17 0.91134844591448683 2.3146817792478203\n"
            "0 8 0.0040130789620535711 2.6893464122953867\n"
            "1 28 0.0040130789620535711 2.6893464122953867\n"
            "2 18 0.0040130789620535711 2.6893464122953867\n"
            "3 30 0.0040130789620535711 2.6893464122953867\n"
            "4 13 0.0040130789620535711 2.6893464122953867\n"
            "5 2 0.0040130789620535711 2.6893464122953867\n"
            "6 4 0.0040130789620535711 2.6893464122953867\n"
            "7 22 1.81868381286692 4.504017146200253\n"
            "5 10 2.1933578563871832 4.6530867636083579\n"
            "0 12 2.1933578563871832 4.8786911897205165\n"
            "1 29 2.1933578563871832 4.8786911897205165\n"
            "2 20 2.1933578563871832 4.8786911897205165\n"
            "5 33 4.1570896560711201 5.5604229894044535\n"
            "2 14 4.3826971842447913 5.7860305175781246\n"
            "5 32 5.0644250230235528 6.4677583563568861\n"
            "4 0 2.1933578563871832 6.5763578563871814\n"
            "3 7 2.1933578563871832 6.5813578563871822\n"
            "6 19 2.1933578563871832 6.5813578563871822\n"
            "7 3 4.0080191798193523 6.6933528037962864\n"
            "2 23 5.2900325511972239 6.6933658845305573\n"
            "0 25 4.3826971842447913 7.0680305175781246\n"
            "1 36 4.3826971842447913 7.0680305175781246\n"
            "4 38 6.0803605188025331 7.4836938521358665\n"
            "3 39 6.0853619236253813 7.7482964133303609\n"
            "5 24 5.9717603899759855 8.6570937233093179\n"
            "6 5 6.0853619236253813 8.7706952569587138\n"
            "7 15 6.1973546380409639 8.8826879713742972\n"
            "2 31 6.1973675194008138 8.8827008527341462\n"
            "1 1 6.5720337873186372 8.8964030822463798\n"
            "0 21 6.5720337873186372 9.2573671206519705\n"
            "5 27 8.1610959563028409 9.6001888700296973\n"
            "3 6 7.2522980482006174 9.9376313815339508\n"
            "0 37 8.7613691542710708 10.164702487604405\n"
            "4 9 6.987695487006123 10.249527783918637\n"
            "6 11 8.2746979193740664 10.960031252707399\n"
            "7 16 8.3866902043678202 11.072023537701153\n"
            "2 26 8.3867035151494989 11.648535812062013\n"
            "1 34 8.40040511586548 11.662237412777994\n");
  std::string finish;
  for (Seconds t : result.exec.process_finish_time) {
    std::snprintf(line, sizeof line, "%.17g ", t);
    finish += line;
  }
  EXPECT_EQ(finish,
            "10.164702487604405 11.662237412777994 11.648535812062013 9.9376313815339508 "
            "10.249527783918637 9.6001888700296973 10.960031252707399 11.072023537701153 ");
  std::snprintf(line, sizeof line, "%.17g", result.exec.makespan);
  EXPECT_EQ(std::string(line), "11.662237412777994");
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
