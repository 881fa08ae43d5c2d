// Fault-injection end to end through the exp harness (DESIGN.md §11):
// exactly-once completion across crash + reassignment, re-replication byte
// accounting against the planned layout, straggler-threshold detection, the
// dynamic scheduler's membership-driven re-plan, one plan spanning every
// ParaView step and iterative epoch, and task spans placed on their
// process's node after a join.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/analytics.hpp"
#include "obs/spans.hpp"
#include "opass/plan_audit.hpp"
#include "workload/paraview.hpp"

namespace opass::exp {
namespace {

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 42;
  return cfg;
}

sim::FaultEvent make_event(Seconds at, sim::FaultKind kind, dfs::NodeId node) {
  sim::FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.node = node;
  return ev;
}

std::vector<runtime::TaskId> executed_ids(const runtime::ExecutionResult& raw) {
  std::vector<runtime::TaskId> ids;
  ids.reserve(raw.task_spans.size());
  for (const auto& span : raw.task_spans) ids.push_back(span.task);
  return ids;
}

TEST(FaultE2E, CrashedStaticRunCompletesExactlyOnce) {
  auto cfg = small_cfg();
  sim::FaultPlan plan;
  plan.events.push_back(make_event(2.0, sim::FaultKind::kCrash, 5));
  sim::FaultStats stats;
  runtime::ExecutionResult raw;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  cfg.raw = &raw;

  const auto out = run_single_data(cfg, 80, Method::kOpass);
  EXPECT_EQ(out.tasks_executed, 80u);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.lost_chunks, 0u);
  // The exactly-once contract survives the crash: every task ran once.
  const auto report = core::audit_completion(80, executed_ids(raw));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FaultE2E, ReReplicationBytesMatchThePlannedLayout) {
  auto cfg = small_cfg();
  // plan_single_data materializes the same seeded namespace the run builds,
  // so the victim's planned chunk inventory predicts the recovery traffic.
  const auto planned = plan_single_data(cfg, 80, Method::kOpass);
  Bytes expected = 0;
  for (const dfs::ChunkId c : planned.nn.chunks_on_node(5))
    expected += planned.nn.chunk(c).size;
  ASSERT_GT(expected, 0u);

  sim::FaultPlan plan;
  plan.events.push_back(make_event(2.0, sim::FaultKind::kCrash, 5));
  sim::FaultStats stats;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  run_single_data(cfg, 80, Method::kOpass);
  EXPECT_EQ(stats.rereplicated_bytes, expected);
  EXPECT_EQ(stats.replicas_copied, planned.nn.chunks_on_node(5).size());
}

TEST(FaultE2E, StragglerDetectionRespectsTheThreshold) {
  // Deep straggler (0.2x): the slow node's serve tail must clear the
  // lag_factor * p90 bar; a mild one (0.9x) must not.
  for (const double factor : {0.2, 0.9}) {
    auto cfg = small_cfg();
    sim::FaultPlan plan;
    auto slow = make_event(1.0, sim::FaultKind::kSlow, 3);
    slow.factor = factor;
    plan.events.push_back(slow);
    runtime::ExecutionResult raw;
    cfg.faults = &plan;
    cfg.raw = &raw;
    run_single_data(cfg, 160, Method::kOpass);

    const auto analytics = obs::analyze_execution(raw, cfg.nodes);
    bool flagged = false;
    for (const auto& s : analytics.straggler_nodes) flagged |= (s.id == 3);
    EXPECT_EQ(flagged, factor < 0.5) << "factor " << factor;
  }
}

TEST(FaultE2E, DynamicSchedulerReplansAroundACrash) {
  auto cfg = small_cfg();
  sim::FaultPlan plan;
  plan.events.push_back(make_event(2.0, sim::FaultKind::kCrash, 5));
  sim::FaultStats stats;
  runtime::ExecutionResult raw;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  cfg.raw = &raw;

  const auto out = run_dynamic(cfg, 80, Method::kOpass);
  EXPECT_EQ(out.tasks_executed, 80u);
  EXPECT_EQ(stats.crashes, 1u);
  const auto report = core::audit_completion(80, executed_ids(raw));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

/// The phases of a multi-phase run sit back to back in `raw`, `per_phase`
/// task spans each: every phase must run its tasks exactly once, start at
/// its predecessor's last task and last `durations[k]`, and the crash at
/// `crash_at` must fire inside a running phase.
void expect_chained_phases(const runtime::ExecutionResult& raw, std::uint32_t per_phase,
                           const std::vector<Seconds>& durations, Seconds crash_at) {
  ASSERT_EQ(raw.task_spans.size(), per_phase * durations.size());
  Seconds prev_end = 0;
  bool crash_inside = false;
  for (std::size_t k = 0; k < durations.size(); ++k) {
    const auto first = raw.task_spans.begin() + static_cast<std::ptrdiff_t>(k * per_phase);
    std::vector<runtime::TaskId> ids;
    Seconds start = first->start, end = first->end;
    for (auto it = first; it != first + per_phase; ++it) {
      ids.push_back(it->task);
      start = std::min(start, it->start);
      end = std::max(end, it->end);
    }
    const auto report = core::audit_completion(per_phase, ids);
    EXPECT_TRUE(report.ok()) << "phase " << k << ": " << report.to_string();
    EXPECT_EQ(start, prev_end) << "phase " << k;
    EXPECT_DOUBLE_EQ(end - start, durations[k]) << "phase " << k;
    crash_inside |= start < crash_at && crash_at < end;
    prev_end = end;
  }
  EXPECT_TRUE(crash_inside);
}

/// bench/faults/crash.json: node 17 crashes at 3 s.
sim::FaultPlan crash_plan() {
  sim::FaultPlan plan;
  plan.horizon = 120.0;
  plan.max_concurrent_copies = 4;
  plan.events.push_back(make_event(3.0, sim::FaultKind::kCrash, 17));
  return plan;
}

TEST(FaultE2E, OnePlanSpansEveryParaViewStep) {
  ExperimentConfig cfg;
  cfg.nodes = 64;
  const auto plan = crash_plan();
  sim::FaultStats stats;
  runtime::ExecutionResult raw;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  cfg.raw = &raw;
  workload::ParaViewSpec spec;  // 640 datasets, 64 per step
  const auto out = run_paraview(cfg, Method::kOpass, spec);
  ASSERT_EQ(out.step_times.size(), 10u);
  // Step 2 starts where step 1's last task ends, not at the plan's 120 s
  // heartbeat horizon.
  EXPECT_NEAR(out.step_times[0], 2.418667, 5e-7);
  expect_chained_phases(raw, spec.datasets_per_step, out.step_times, 3.0);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.replicas_copied, 25u);
}

TEST(FaultE2E, OnePlanSpansEveryIterativeEpoch) {
  ExperimentConfig cfg;
  cfg.nodes = 24;
  const auto plan = crash_plan();
  sim::FaultStats stats;
  runtime::ExecutionResult raw;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  cfg.raw = &raw;
  const auto out = run_iterative(cfg, 48, 4, Method::kOpass);
  ASSERT_EQ(out.epoch_times.size(), 4u);
  expect_chained_phases(raw, 48, out.epoch_times, 3.0);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
}

// Processes are placed when the run starts; a node joining at 0 s raises the
// node count to 17 but moves no process. Each task span names the node its
// process ran on, the node its reads name as their reader.
TEST(FaultE2E, TaskSpansNameTheirProcessNodeAfterAJoin) {
  auto cfg = small_cfg();
  cfg.processes_per_node = 2;
  sim::FaultPlan plan;
  plan.events.push_back(make_event(0.0, sim::FaultKind::kJoin, dfs::kInvalidNode));
  obs::SpanLog spans;
  cfg.faults = &plan;
  cfg.spans = &spans;
  run_single_data(cfg, 64, Method::kOpass);

  std::size_t task_spans = 0;
  std::size_t read_spans = 0;
  for (const obs::Span& s : spans.spans()) {
    if (s.kind == obs::SpanKind::kTask) {
      ++task_spans;
      EXPECT_EQ(s.node, s.process % 16) << "process " << s.process;
    } else if (s.kind == obs::SpanKind::kRead) {
      ++read_spans;
      EXPECT_EQ(spans.spans()[s.parent].node, s.node) << "process " << s.process;
    }
  }
  EXPECT_EQ(task_spans, 64u);
  EXPECT_EQ(read_spans, 64u);
}

TEST(FaultE2E, ChurnRunStaysDeterministic) {
  auto cfg = small_cfg();
  cfg.replication = 2;
  sim::FaultPlan plan;
  plan.events.push_back(make_event(2.0, sim::FaultKind::kJoin, dfs::kInvalidNode));
  auto rebalance = make_event(4.0, sim::FaultKind::kRebalance, dfs::kInvalidNode);
  rebalance.tolerance = 2;
  plan.events.push_back(rebalance);
  plan.events.push_back(make_event(8.0, sim::FaultKind::kDecommission, 2));

  auto run = [&] {
    sim::FaultStats stats;
    ExperimentConfig c = cfg;
    c.faults = &plan;
    c.fault_stats = &stats;
    const auto out = run_single_data(c, 80, Method::kOpass);
    return std::pair<Seconds, Bytes>(out.makespan, stats.rereplicated_bytes);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.second, 0u);
}

}  // namespace
}  // namespace opass::exp
