// Causal span log and attribution (DESIGN.md §13): names by kind, the
// SpanLog::add reconciliation invariant (slices chain gap-free and telescope
// to the span duration), exec-span construction on a real small execution,
// the top-level-only attribution sums, and the critical path's exact-chaining
// and blame-total contracts.
#include "obs/spans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/attribution.hpp"
#include "runtime/task_source.hpp"
#include "sim/flow_sim.hpp"

namespace opass::obs {
namespace {

TEST(SpanName, FollowsTheKind) {
  EXPECT_STREQ(span_name(SpanKind::kTask), "exec.task.run");
  EXPECT_STREQ(span_name(SpanKind::kRead), "exec.read.serve");
  EXPECT_STREQ(span_name(SpanKind::kWait), "exec.wave.wait");
  EXPECT_STREQ(span_name(SpanKind::kQueue), "svc.job.queue");
  EXPECT_STREQ(span_name(SpanKind::kPlan), "svc.job.plan");
}

Span make_span(std::int64_t start, std::int64_t end) {
  Span s;
  s.kind = SpanKind::kTask;
  s.start_ticks = start;
  s.end_ticks = end;
  return s;
}

AttrSlice slice(AttrKind kind, std::int64_t start, std::int64_t end,
                dfs::NodeId node = dfs::kInvalidNode) {
  AttrSlice s;
  s.kind = kind;
  s.node = node;
  s.start_ticks = start;
  s.end_ticks = end;
  return s;
}

TEST(SpanLog, AddAssignsSequentialIdsAndTracksTheMakespan) {
  SpanLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.max_end_ticks(), 0);
  EXPECT_EQ(log.add(make_span(0, 10)), 0u);
  EXPECT_EQ(log.add(make_span(5, 30)), 1u);
  EXPECT_EQ(log.add(make_span(2, 20)), 2u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.max_end_ticks(), 30);
}

TEST(SpanLog, AddRejectsTaxonomyAndOrderingViolations) {
  SpanLog log;
  EXPECT_THROW(log.add(make_span(5, 4)), std::invalid_argument);  // ends early

  Span orphan = make_span(0, 1);
  orphan.parent = 7;  // no span 7 exists yet
  EXPECT_THROW(log.add(orphan), std::invalid_argument);
}

TEST(SpanLog, AddEnforcesTheReconciliationInvariant) {
  SpanLog log;

  // Gap between slices.
  const std::vector<AttrSlice> gapped = {slice(AttrKind::kSeek, 0, 4),
                                         slice(AttrKind::kSrcDisk, 5, 10)};
  EXPECT_THROW(log.add(make_span(0, 10), gapped), std::invalid_argument);

  // First slice opens after the span start.
  const std::vector<AttrSlice> late = {slice(AttrKind::kSrcDisk, 1, 10)};
  EXPECT_THROW(log.add(make_span(0, 10), late), std::invalid_argument);

  // Last slice closes before the span end.
  const std::vector<AttrSlice> short_tail = {slice(AttrKind::kSrcDisk, 0, 9)};
  EXPECT_THROW(log.add(make_span(0, 10), short_tail), std::invalid_argument);
  EXPECT_TRUE(log.empty());  // a rejected span leaves nothing behind

  // An exact tiling is accepted; zero-width slices are legal joints.
  const std::vector<AttrSlice> exact = {slice(AttrKind::kQueueWait, 0, 2),
                                        slice(AttrKind::kSeek, 2, 2),
                                        slice(AttrKind::kSrcDisk, 2, 10, /*node=*/3)};
  log.add(make_span(0, 3));  // an untiled span first: the arena keeps each run apart
  const auto id = log.add(make_span(0, 10), exact);
  const Span& stored = log.spans()[id];
  EXPECT_TRUE(log.breakdown(log.spans()[0]).empty());
  const std::span<const AttrSlice> read_back = log.breakdown(stored);
  ASSERT_EQ(read_back.size(), exact.size());
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(read_back[i].kind, exact[i].kind);
    EXPECT_EQ(read_back[i].node, exact[i].node);
    EXPECT_EQ(read_back[i].start_ticks, exact[i].start_ticks);
    sum += read_back[i].duration_ticks();
  }
  EXPECT_EQ(sum, stored.duration_ticks());
}

// --- exec spans on a real execution ----------------------------------------

struct SpanFixture : ::testing::Test {
  SpanFixture()
      : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(1) {
    params.disk_bandwidth = 64.0 * kMiB;  // 1 s per local chunk
    params.nic_bandwidth = 64.0 * kMiB;
    params.disk_beta = 0.0;
    params.seek_latency = 0.0;
    params.remote_latency = 0.0;
    params.remote_stream_cap = 0.0;
  }

  std::vector<runtime::Task> make_tasks(std::uint32_t chunks) {
    const auto fid = nn.create_file("d", chunks * kDefaultChunkSize, policy, rng);
    return runtime::single_input_tasks(nn, {fid});
  }

  runtime::ExecutionResult run(const std::vector<runtime::Task>& tasks, sim::Cluster& cluster) {
    runtime::StaticAssignmentSource source(
        runtime::rank_interval_assignment(static_cast<std::uint32_t>(tasks.size()), 4));
    runtime::ExecutorConfig config;
    config.record_read_breakdown = true;
    return runtime::execute(cluster, nn, tasks, source, rng, config);
  }

  dfs::NameNode nn;
  dfs::RoundRobinPlacement policy;
  Rng rng;
  sim::ClusterParams params;
};

TEST_F(SpanFixture, ExecutionSpansReconcileExactly) {
  auto tasks = make_tasks(8);
  for (auto& t : tasks) t.compute_time = 0.25;
  sim::Cluster cluster(4, params);
  const auto exec = run(tasks, cluster);

  SpanLog log;
  append_execution_spans(log, exec, tasks, cluster);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.max_end_ticks(), sim::to_ticks(exec.makespan));

  std::size_t task_spans = 0, read_spans = 0;
  for (const Span& s : log.spans()) {
    // Every breakdown telescopes to its span (SpanLog::add guarantees it;
    // assert anyway so a future bypass of add() cannot rot silently).
    std::int64_t sum = 0;
    for (const AttrSlice& sl : log.breakdown(s)) sum += sl.duration_ticks();
    if (!log.breakdown(s).empty()) {
      EXPECT_EQ(sum, s.duration_ticks());
    }
    if (s.kind == SpanKind::kTask) {
      ++task_spans;
      EXPECT_EQ(s.parent, kNoSpan);
      EXPECT_FALSE(log.breakdown(s).empty());
    }
    if (s.kind == SpanKind::kRead) {
      ++read_spans;
      ASSERT_NE(s.parent, kNoSpan);
      EXPECT_EQ(log.spans()[s.parent].kind, SpanKind::kTask);
      EXPECT_EQ(log.spans()[s.parent].task, s.task);
    }
  }
  EXPECT_EQ(task_spans, tasks.size());
  EXPECT_EQ(read_spans, exec.trace.size());

  // The compute phase shows up: each task span's kCompute ticks equal its
  // compute_time exactly (no contention in this tiny run).
  for (const Span& s : log.spans()) {
    if (s.kind != SpanKind::kTask) continue;
    std::int64_t compute = 0;
    for (const AttrSlice& sl : log.breakdown(s))
      if (sl.kind == AttrKind::kCompute) compute += sl.duration_ticks();
    EXPECT_EQ(compute, sim::to_ticks(0.25));
  }
}

TEST_F(SpanFixture, RetryGapsEmitWaitSpans) {
  // Every chunk sits on node 0 alone, so processes 1-3 wait out the delay
  // window before each remote task: gaps between their tasks.
  dfs::NameNode hot(dfs::Topology::single_rack(4), 1, kDefaultChunkSize);
  dfs::HdfsDefaultPlacement writer_local;
  const auto fid = hot.create_file("d", 8 * kDefaultChunkSize, writer_local, rng, /*writer=*/0);
  const auto tasks = runtime::single_input_tasks(hot, {fid});
  sim::Cluster cluster(4, params);
  runtime::DelaySchedulingSource source(hot, tasks, {0, 1, 2, 3}, rng, /*max_delay=*/0.2);
  runtime::ExecutorConfig config;
  config.record_read_breakdown = true;
  const auto exec = runtime::execute(cluster, hot, tasks, source, rng, config);

  SpanLog log;
  append_execution_spans(log, exec, tasks, cluster);
  std::int64_t barrier_ticks = 0;
  for (const Span& s : log.spans()) {
    if (s.kind != SpanKind::kWait) continue;
    EXPECT_NE(s.process, 0u);  // node 0's process always finds a local task
    for (const AttrSlice& sl : log.breakdown(s))
      if (sl.kind == AttrKind::kBarrier) barrier_ticks += sl.duration_ticks();
  }
  EXPECT_GT(barrier_ticks, 0);
}

TEST_F(SpanFixture, ExecutionWithoutReadBreakdownsIsRejected) {
  const auto tasks = make_tasks(8);
  sim::Cluster cluster(4, params);
  runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(8, 4));
  const auto exec = runtime::execute(cluster, nn, tasks, source, rng);
  ASSERT_GT(exec.trace.size(), 0u);

  SpanLog log;
  EXPECT_THROW(append_execution_spans(log, exec, tasks, cluster), std::invalid_argument);
  EXPECT_TRUE(log.empty());
}

TEST_F(SpanFixture, AttributionSumsTopLevelSpansOnly) {
  const auto tasks = make_tasks(8);
  sim::Cluster cluster(4, params);
  const auto exec = run(tasks, cluster);

  SpanLog log;
  append_execution_spans(log, exec, tasks, cluster);
  const AttributionTotals totals = attribute_spans(log, /*node_count=*/4);

  std::int64_t top_level = 0;
  for (const Span& s : log.spans())
    if (s.parent == kNoSpan) top_level += s.duration_ticks();
  EXPECT_EQ(totals.total_ticks, top_level);

  std::int64_t kind_sum = 0;
  for (std::int64_t t : totals.kind_ticks) kind_sum += t;
  EXPECT_EQ(kind_sum, totals.total_ticks);

  // Node blame never exceeds the attributed total.
  std::int64_t node_sum = 0;
  for (std::int64_t t : totals.node_ticks) node_sum += t;
  EXPECT_LE(node_sum, totals.total_ticks);
  // This run is disk-bound (disk == NIC bandwidth, disk wins ties).
  EXPECT_GT(totals.kind_ticks[static_cast<std::size_t>(AttrKind::kSrcDisk)], 0);
}

TEST_F(SpanFixture, CriticalPathChainsExactlyAndExplainsTheMakespan) {
  // Two phases chained the way exp's Run chains them: the second Execution
  // launches when the first one's last task ends. Process 0 finishes the
  // first phase last and process 3 the second, so the path hops from
  // process 3 to process 0 at the phase boundary.
  auto first = make_tasks(8);
  for (auto& t : first) t.compute_time = 0.5;
  auto second = first;
  first[1].compute_time = 4.0;   // process 0's last task in phase 1
  second[7].compute_time = 4.0;  // process 3's last task in phase 2
  sim::Cluster cluster(4, params);
  SpanLog log;
  std::int64_t boundary = 0;
  for (const auto* tasks : {&first, &second}) {
    runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(8, 4));
    runtime::ExecutorConfig config;
    config.record_read_breakdown = true;
    runtime::Execution execution(cluster, nn, *tasks, source, rng, config);
    execution.launch(cluster.simulator().now());
    execution.run_until_done();
    const auto exec = execution.take_result();
    append_execution_spans(log, exec, *tasks, cluster);
    if (tasks == &first) boundary = sim::to_ticks(exec.makespan);
  }
  const CriticalPath cp = critical_path(log, /*node_count=*/4);
  ASSERT_FALSE(cp.steps.empty());

  // Rule 2 at the boundary: the step starting there follows a task of
  // another process that ended exactly there.
  std::size_t hop = 0;
  for (std::size_t i = 1; i < cp.steps.size(); ++i)
    if (cp.steps[i].start_ticks == boundary) hop = i;
  ASSERT_GT(hop, 0u);
  const std::uint32_t before = cp.steps[hop - 1].span;
  const std::uint32_t after = cp.steps[hop].span;
  ASSERT_NE(before, kNoSpan);
  ASSERT_NE(after, kNoSpan);
  EXPECT_EQ(log.spans()[before].process, 0u);
  EXPECT_EQ(log.spans()[after].process, 3u);
  EXPECT_EQ(log.spans()[before].end_ticks, boundary);

  // Steps chain gap-free and the last ends at the makespan.
  for (std::size_t i = 1; i < cp.steps.size(); ++i)
    EXPECT_EQ(cp.steps[i].start_ticks, cp.steps[i - 1].end_ticks);
  EXPECT_EQ(cp.steps.back().end_ticks, log.max_end_ticks());

  // Blame totals cover exactly the path's span.
  const std::int64_t covered = cp.steps.back().end_ticks - cp.steps.front().start_ticks;
  EXPECT_EQ(cp.blame.total_ticks, covered);
  std::int64_t kind_sum = 0;
  for (std::int64_t t : cp.blame.kind_ticks) kind_sum += t;
  EXPECT_EQ(kind_sum, covered);

  // Every non-idle step is a task span.
  for (const auto& step : cp.steps) {
    if (step.span == kNoSpan) continue;
    ASSERT_LT(step.span, log.size());
    EXPECT_EQ(log.spans()[step.span].kind, SpanKind::kTask);
  }
}

TEST_F(SpanFixture, CriticalPathOfAnEmptyLogIsEmpty) {
  SpanLog log;
  const CriticalPath cp = critical_path(log, 4);
  EXPECT_TRUE(cp.steps.empty());
  EXPECT_EQ(cp.blame.total_ticks, 0);
}

TEST(ServiceSpans, PlannedJobsGetQueueAndPlanSpans) {
  std::vector<core::JobStatus> statuses(3);
  statuses[0].id = 10;
  statuses[0].state = core::JobState::kPlanned;
  statuses[0].tenant = 1;
  statuses[0].arrival = 0.5;
  statuses[0].planned_at = 2.0;
  statuses[1].id = 11;
  statuses[1].state = core::JobState::kQueued;  // still queued: no span
  statuses[2].id = 12;
  statuses[2].state = core::JobState::kCompleted;
  statuses[2].tenant = 2;
  statuses[2].arrival = 1.0;
  statuses[2].planned_at = 2.0;

  SpanLog log;
  append_service_spans(log, statuses);
  std::size_t queue = 0, plan = 0;
  for (const Span& s : log.spans()) {
    if (s.kind == SpanKind::kQueue) {
      ++queue;
      ASSERT_EQ(log.breakdown(s).size(), 1u);
      EXPECT_EQ(log.breakdown(s)[0].kind, AttrKind::kQueueWait);
    }
    if (s.kind == SpanKind::kPlan) {
      ++plan;
      EXPECT_EQ(s.duration_ticks(), 0);
    }
  }
  EXPECT_EQ(queue, 2u);  // the queued job contributes nothing
  EXPECT_EQ(plan, 2u);

  // Tenant rides in `process`, job id in `task` — the per-tenant aggregation
  // key the ROADMAP's co-simulation item needs.
  const Span& first = log.spans()[0];
  EXPECT_EQ(first.process, 1u);
  EXPECT_EQ(first.task, 10u);
  EXPECT_EQ(first.duration_ticks(), sim::to_ticks(2.0) - sim::to_ticks(0.5));
}

TEST_F(SpanFixture, SpanDocRendersDeterministically) {
  const auto tasks = make_tasks(8);
  const auto build = [&] {
    Rng local_rng(1);
    sim::Cluster cluster(4, params);
    runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(8, 4));
    runtime::ExecutorConfig config;
    config.record_read_breakdown = true;
    const auto exec = runtime::execute(cluster, nn, tasks, source, local_rng, config);
    SpanLog log;
    append_execution_spans(log, exec, tasks, cluster);
    SpanDocBuilder doc;
    doc.add_method("baseline", log, 4);
    return std::make_pair(doc.spans_json(), doc.critical_path_json());
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(a.second.find("\"steps\""), std::string::npos);
}

}  // namespace
}  // namespace opass::obs
