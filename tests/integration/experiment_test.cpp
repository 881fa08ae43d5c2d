// Integration tests of the exp harness — the code every bench binary uses.
#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include "opass/opass.hpp"
#include "workload/paraview.hpp"

namespace opass::exp {
namespace {

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 21;
  return cfg;
}

TEST(Experiment, SingleDataBothMethodsRun) {
  const auto cfg = small_cfg();
  const auto base = run_single_data(cfg, 160, Method::kBaseline);
  const auto opass = run_single_data(cfg, 160, Method::kOpass);
  EXPECT_EQ(base.tasks_executed, 160u);
  EXPECT_EQ(opass.tasks_executed, 160u);
  EXPECT_EQ(base.served_mb.size(), 16u);
  EXPECT_EQ(base.io_times.size(), 160u);
  EXPECT_LT(opass.io.mean, base.io.mean);
  EXPECT_GT(opass.planned_local_fraction, 0.95);
}

TEST(Experiment, SingleDataSameLayoutAcrossMethods) {
  // Both methods see identical data placement (seeded stream separation):
  // total served bytes equal and equal per-method byte totals.
  const auto cfg = small_cfg();
  const auto base = run_single_data(cfg, 80, Method::kBaseline);
  const auto opass = run_single_data(cfg, 80, Method::kOpass);
  double b = 0, o = 0;
  for (double v : base.served_mb) b += v;
  for (double v : opass.served_mb) o += v;
  EXPECT_DOUBLE_EQ(b, o);
  EXPECT_DOUBLE_EQ(b, 80.0 * 64.0);
}

TEST(Experiment, SingleDataDeterministicForSeed) {
  const auto cfg = small_cfg();
  const auto a = run_single_data(cfg, 80, Method::kBaseline);
  const auto b = run_single_data(cfg, 80, Method::kBaseline);
  EXPECT_EQ(a.io_times, b.io_times);
  EXPECT_EQ(a.served_mb, b.served_mb);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Experiment, SingleDataSeedChangesOutcome) {
  auto cfg = small_cfg();
  const auto a = run_single_data(cfg, 80, Method::kBaseline);
  cfg.seed = 99;
  const auto b = run_single_data(cfg, 80, Method::kBaseline);
  EXPECT_NE(a.io_times, b.io_times);
}

TEST(Experiment, MultiDataImproves) {
  const auto cfg = small_cfg();
  const auto base = run_multi_data(cfg, 64, Method::kBaseline);
  const auto opass = run_multi_data(cfg, 64, Method::kOpass);
  EXPECT_EQ(base.tasks_executed, 64u);
  EXPECT_EQ(base.io_times.size(), 64u * 3);  // three reads per task
  EXPECT_LT(opass.io.mean, base.io.mean);
  EXPECT_GT(opass.local_fraction, base.local_fraction);
}

TEST(Experiment, DynamicImproves) {
  const auto cfg = small_cfg();
  workload::GenomicsSpec spec;
  spec.mean_compute_time = 0.0;  // pure I/O, as in the Fig. 11 test
  const auto base = run_dynamic(cfg, 160, Method::kBaseline, spec);
  const auto opass = run_dynamic(cfg, 160, Method::kOpass, spec);
  EXPECT_EQ(base.tasks_executed, 160u);
  EXPECT_EQ(opass.tasks_executed, 160u);
  EXPECT_LT(opass.io.mean, base.io.mean);
}

TEST(Experiment, ParaViewStepsAndTotals) {
  auto cfg = small_cfg();
  workload::ParaViewSpec spec;
  spec.dataset_count = 64;
  spec.datasets_per_step = 16;
  spec.render_time_per_task = 0.1;
  const auto base = run_paraview(cfg, Method::kBaseline, spec);
  const auto opass = run_paraview(cfg, Method::kOpass, spec);
  EXPECT_EQ(base.step_times.size(), 4u);
  EXPECT_EQ(base.run.tasks_executed, 64u);
  Seconds sum = 0;
  for (Seconds t : base.step_times) sum += t;
  EXPECT_DOUBLE_EQ(base.total_time, sum);
  EXPECT_LT(opass.total_time, base.total_time);
  EXPECT_LT(opass.run.io.stddev, base.run.io.stddev);
}

TEST(Experiment, IterativeEpochsAccumulate) {
  auto cfg = small_cfg();
  const auto one = run_iterative(cfg, 80, 1, Method::kOpass, 0.1);
  const auto four = run_iterative(cfg, 80, 4, Method::kOpass, 0.1);
  EXPECT_EQ(one.epoch_times.size(), 1u);
  EXPECT_EQ(four.epoch_times.size(), 4u);
  EXPECT_EQ(four.run.tasks_executed, 4u * 80u);
  // Opass epochs replay the same local assignment: near-identical times.
  for (Seconds t : four.epoch_times) EXPECT_NEAR(t, four.epoch_times[0], 0.5);
  EXPECT_NEAR(four.total_time, 4.0 * one.total_time, 0.2 * four.total_time);
}

TEST(Experiment, IterativeOpassBeatsBaselinePerEpoch) {
  auto cfg = small_cfg();
  const auto base = run_iterative(cfg, 160, 3, Method::kBaseline);
  const auto op = run_iterative(cfg, 160, 3, Method::kOpass);
  EXPECT_LT(op.total_time, base.total_time);
  EXPECT_GT(op.run.local_fraction, base.run.local_fraction);
}

TEST(Experiment, IterativeRejectsZeroEpochs) {
  EXPECT_THROW(run_iterative(small_cfg(), 10, 0, Method::kOpass), std::invalid_argument);
}

TEST(Experiment, AllScenariosDeterministicForSeed) {
  const auto cfg = small_cfg();
  {
    const auto a = run_multi_data(cfg, 32, Method::kOpass);
    const auto b = run_multi_data(cfg, 32, Method::kOpass);
    EXPECT_EQ(a.io_times, b.io_times);
  }
  {
    const auto a = run_dynamic(cfg, 64, Method::kOpass);
    const auto b = run_dynamic(cfg, 64, Method::kOpass);
    EXPECT_EQ(a.io_times, b.io_times);
  }
  {
    workload::ParaViewSpec spec;
    spec.dataset_count = 32;
    spec.datasets_per_step = 16;
    const auto a = run_paraview(cfg, Method::kBaseline, spec);
    const auto b = run_paraview(cfg, Method::kBaseline, spec);
    EXPECT_EQ(a.run.io_times, b.run.io_times);
    EXPECT_EQ(a.step_times, b.step_times);
  }
  {
    const auto a = run_iterative(cfg, 48, 2, Method::kBaseline);
    const auto b = run_iterative(cfg, 48, 2, Method::kBaseline);
    EXPECT_EQ(a.epoch_times, b.epoch_times);
  }
}

TEST(Experiment, ProcessesPerNodeMultipliesProcesses) {
  auto cfg = small_cfg();
  cfg.processes_per_node = 2;
  runtime::ExecutionResult raw;
  cfg.raw = &raw;
  const auto out = run_single_data(cfg, 64, Method::kOpass);
  EXPECT_EQ(out.tasks_executed, 64u);
  // 32 processes on 16 nodes: quotas of 2 tasks each still drain everything.
  EXPECT_GT(out.local_fraction, 0.9);
  EXPECT_EQ(raw.process_finish_time.size(), 32u);

  // The multi-phase scenarios honour the knob too.
  workload::ParaViewSpec spec;
  spec.dataset_count = 64;
  spec.datasets_per_step = 32;
  EXPECT_EQ(run_paraview(cfg, Method::kOpass, spec).run.tasks_executed, 64u);
  EXPECT_EQ(raw.process_finish_time.size(), 32u);
  EXPECT_EQ(run_iterative(cfg, 64, 2, Method::kOpass).run.tasks_executed, 2u * 64u);
  EXPECT_EQ(raw.process_finish_time.size(), 32u);
}

TEST(Experiment, PlannedLocalFractionEqualsAFreshScore) {
  // Without a fault plan a run reuses the score core::plan() gave its plan
  // instead of scoring the plan again; both must agree.
  const auto cfg = small_cfg();
  const auto sc = plan_single_data(cfg, 160, Method::kOpass);
  ASSERT_TRUE(sc.stats.has_value());
  const auto fresh = core::evaluate_assignment(sc.nn, sc.tasks, sc.assignment, sc.placement);
  EXPECT_EQ(sc.stats->local_bytes, fresh.local_bytes);
  EXPECT_EQ(sc.stats->total_bytes, fresh.total_bytes);
  EXPECT_FALSE(plan_single_data(cfg, 160, Method::kBaseline).stats.has_value());
  EXPECT_EQ(run_single_data(cfg, 160, Method::kOpass).planned_local_fraction,
            fresh.local_fraction());
  // Every iterative epoch replays that same plan of the same layout.
  EXPECT_EQ(run_iterative(cfg, 160, 3, Method::kOpass).run.planned_local_fraction,
            fresh.local_fraction());

  // ParaView plans each rendering step; rebuild those plans from the
  // harness's derived streams (placement seed * 2654435761 + 1, assignment
  // + 2) and score each one afresh.
  Rng placement_rng(cfg.seed * 2654435761ULL + 1);
  Rng assign_rng(cfg.seed * 2654435761ULL + 2);
  dfs::NameNode nn(dfs::Topology::single_rack(cfg.nodes), cfg.replication, cfg.chunk_size);
  const auto policy = dfs::make_placement(cfg.placement);
  const auto wl = workload::make_paraview_workload(nn, *policy, placement_rng);
  const auto placement = core::one_process_per_node(nn, cfg.nodes * cfg.processes_per_node);
  Bytes local = 0, total = 0;
  for (const auto& step : wl.steps) {
    std::vector<runtime::Task> tasks;
    for (runtime::TaskId id : step) {
      tasks.push_back(wl.tasks[id]);
      tasks.back().id = static_cast<runtime::TaskId>(tasks.size() - 1);
    }
    const auto plan = core::plan({&nn, &tasks, &placement, &assign_rng});
    const auto step_stats = core::evaluate_assignment(nn, tasks, plan.assignment, placement);
    local += step_stats.local_bytes;
    total += step_stats.total_bytes;
  }
  EXPECT_EQ(run_paraview(cfg, Method::kOpass).run.planned_local_fraction,
            static_cast<double>(local) / static_cast<double>(total));
}

TEST(Experiment, MethodNames) {
  EXPECT_STREQ(method_name(Method::kBaseline), "baseline");
  EXPECT_STREQ(method_name(Method::kOpass), "opass");
}

}  // namespace
}  // namespace opass::exp
