#include "exp/experiment.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "dfs/topology.hpp"
#include "obs/collect.hpp"
#include "opass/opass.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace opass::exp {

namespace {

/// Derived deterministic RNG streams so placement is identical across
/// methods while assignment/execution noise stays independent.
struct Streams {
  Rng placement, assign, exec, faults;
  explicit Streams(std::uint64_t seed)
      : placement(seed * 2654435761ULL + 1),
        assign(seed * 2654435761ULL + 2),
        exec(seed * 2654435761ULL + 3),
        faults(seed * 2654435761ULL + 4) {}
};

/// Heartbeat + injector pair armed on a run's cluster when the config carries
/// a fault plan. Construct before runtime::execute; the scripted events and
/// detection checks are simulator timers, so they interleave with the job's
/// reads deterministically.
struct FaultHarness {
  std::unique_ptr<sim::HeartbeatMonitor> monitor;
  std::unique_ptr<sim::FaultInjector> injector;

  FaultHarness(const ExperimentConfig& cfg, sim::Cluster& cluster, dfs::NameNode& nn,
               Rng& rng) {
    if (cfg.faults == nullptr) return;
    monitor = std::make_unique<sim::HeartbeatMonitor>(cluster, nn, /*namenode_host=*/0, rng,
                                                      cfg.heartbeat);
    injector = std::make_unique<sim::FaultInjector>(cluster, nn, *monitor, *cfg.faults);
    injector->set_probe(cfg.fault_probe);
    injector->arm();
    monitor->start(cfg.faults->horizon);
  }

  void export_stats(const ExperimentConfig& cfg) const {
    if (injector && cfg.fault_stats != nullptr) *cfg.fault_stats = injector->stats();
  }
};

dfs::NameNode make_namenode(const ExperimentConfig& cfg) {
  return dfs::NameNode(dfs::Topology::single_rack(cfg.nodes), cfg.replication,
                       cfg.chunk_size);
}

/// Every scenario's processes: `processes_per_node` on each node.
core::ProcessPlacement make_process_placement(const ExperimentConfig& cfg,
                                              const dfs::NameNode& nn) {
  return core::one_process_per_node(nn, cfg.nodes * cfg.processes_per_node);
}

/// The run's worker pool (DESIGN.md §12): the config's borrowed pool, a pool
/// owned for the duration when the config asks for threads > 1, or nothing
/// (serial). arm() lends it to the run's simulator and executor.
struct PoolHarness {
  std::optional<ThreadPool> owned;
  ThreadPool* pool = nullptr;

  explicit PoolHarness(const ExperimentConfig& cfg) {
    OPASS_REQUIRE(cfg.threads >= 1, "ExperimentConfig.threads must be >= 1");
    if (cfg.pool != nullptr) {
      pool = cfg.pool;
    } else if (cfg.threads > 1) {
      owned.emplace(cfg.threads);
      pool = &*owned;
    }
  }

  void arm(sim::Cluster& cluster, runtime::ExecutorConfig& ec) const {
    if (pool == nullptr) return;
    cluster.simulator().set_parallelism(pool);
    ec.pool = pool;
  }

  /// Register the pool's execution profile (all wall-clock tagged, so
  /// deterministic exports are unaffected).
  void export_stats(const ExperimentConfig& cfg) const {
    if (pool != nullptr && cfg.metrics != nullptr)
      obs::collect_thread_pool(*cfg.metrics, *pool, "pool");
  }
};

/// Run the chosen Opass planner through the core::plan() facade.
runtime::Assignment opass_assignment(const ExperimentConfig& cfg, core::PlannerKind kind,
                                     const dfs::NameNode& nn,
                                     const std::vector<runtime::Task>& tasks,
                                     const core::ProcessPlacement& placement, Rng& rng,
                                     graph::FlowWorkspace* workspace = nullptr,
                                     ThreadPool* pool = nullptr) {
  core::PlanOptions options;
  options.planner = kind;
  options.workspace = workspace;
  options.threads = cfg.threads;
  options.pool = pool != nullptr ? pool : cfg.pool;
  auto result = core::plan({&nn, &tasks, &placement, &rng}, options);
  // Only Opass plans pass through here, so the prefix is unconditional.
  // Counters accumulate across per-step replans (ParaView); gauges keep the
  // last step's value.
  if (cfg.metrics != nullptr) obs::collect_plan(*cfg.metrics, result, "opass.planner");
  return std::move(result.assignment);
}

/// Feed a finished execution to the config's observability sinks (no-op when
/// none are set): metrics under "<method>.executor" / "<method>.cluster",
/// and the raw trace + spans copied out for trace export.
void observe_run(const ExperimentConfig& cfg, Method method,
                 const runtime::ExecutionResult& exec, const sim::Cluster& cluster) {
  if (cfg.metrics != nullptr) {
    const std::string prefix = method_name(method);
    obs::collect_execution(*cfg.metrics, exec, cfg.nodes, prefix + ".executor");
    obs::collect_cluster(*cfg.metrics, cluster, prefix + ".cluster");
  }
  if (cfg.raw != nullptr) *cfg.raw = exec;
}

/// Append one finished execution's causal spans into the config's span sink
/// (no-op when none). `tasks` must be the table the execution ran against
/// (the renumbered per-step table for ParaView steps).
void observe_spans(const ExperimentConfig& cfg, const runtime::ExecutionResult& exec,
                   const std::vector<runtime::Task>& tasks, const sim::Cluster& cluster) {
  if (cfg.spans != nullptr) obs::append_execution_spans(*cfg.spans, exec, tasks, cluster);
}

/// Fold one step/epoch execution into a run-level aggregate: traces, task
/// spans and read breakdowns concatenate (breakdowns stay index-aligned with
/// the concatenated records), finish times take the latest, stalls and
/// counters sum.
void accumulate(runtime::ExecutionResult& agg, const runtime::ExecutionResult& step) {
  for (const auto& rec : step.trace.records()) agg.trace.add(rec);
  agg.task_spans.insert(agg.task_spans.end(), step.task_spans.begin(),
                        step.task_spans.end());
  agg.read_breakdowns.insert(agg.read_breakdowns.end(), step.read_breakdowns.begin(),
                             step.read_breakdowns.end());
  if (agg.process_finish_time.size() < step.process_finish_time.size())
    agg.process_finish_time.resize(step.process_finish_time.size(), 0);
  for (std::size_t p = 0; p < step.process_finish_time.size(); ++p)
    agg.process_finish_time[p] =
        std::max(agg.process_finish_time[p], step.process_finish_time[p]);
  if (agg.barrier_stall.size() < step.barrier_stall.size())
    agg.barrier_stall.resize(step.barrier_stall.size(), 0);
  for (std::size_t p = 0; p < step.barrier_stall.size(); ++p)
    agg.barrier_stall[p] += step.barrier_stall[p];
  agg.makespan = std::max(agg.makespan, step.makespan);
  agg.tasks_executed += step.tasks_executed;
  agg.read_failures += step.read_failures;
}

RunOutput reduce(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                 const runtime::ExecutionResult& exec, const core::ProcessPlacement& placement,
                 const runtime::Assignment* assignment) {
  RunOutput out;
  out.io = summarize(exec.trace.io_times());
  out.io_times = exec.trace.io_times_by_issue();
  for (Bytes b : exec.trace.bytes_served_per_node(nn.node_count()))
    out.served_mb.push_back(to_mib(b));
  out.local_fraction = exec.trace.local_fraction();
  out.makespan = exec.makespan;
  out.tasks_executed = exec.tasks_executed;
  if (assignment) {
    out.planned_local_fraction =
        core::evaluate_assignment(nn, tasks, *assignment, placement).local_fraction();
  }
  return out;
}

}  // namespace

const char* method_name(Method m) {
  return m == Method::kBaseline ? "baseline" : "opass";
}

PlannedScenario plan_single_data(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                                 Method method) {
  Streams streams(cfg.seed);
  PlannedScenario sc{make_namenode(cfg), {}, {}, {}, /*single_data=*/true};
  auto policy = dfs::make_placement(cfg.placement);
  sc.tasks =
      workload::make_single_data_workload(sc.nn, chunk_count, *policy, streams.placement);
  sc.placement = make_process_placement(cfg, sc.nn);

  if (method == Method::kBaseline) {
    sc.assignment =
        runtime::rank_interval_assignment(static_cast<std::uint32_t>(sc.tasks.size()),
                                          static_cast<std::uint32_t>(sc.placement.size()));
  } else {
    sc.assignment = opass_assignment(cfg, core::PlannerKind::kSingleData, sc.nn, sc.tasks,
                                     sc.placement, streams.assign);
  }
  return sc;
}

PlannedScenario plan_multi_data(const ExperimentConfig& cfg, std::uint32_t task_count,
                                Method method, const workload::MultiInputSpec& spec) {
  Streams streams(cfg.seed);
  PlannedScenario sc{make_namenode(cfg), {}, {}, {}, /*single_data=*/false};
  auto policy = dfs::make_placement(cfg.placement);
  sc.tasks = workload::make_multi_input_workload(sc.nn, task_count, *policy, streams.placement,
                                                 spec);
  sc.placement = make_process_placement(cfg, sc.nn);

  if (method == Method::kBaseline) {
    sc.assignment = runtime::rank_interval_assignment(
        task_count, static_cast<std::uint32_t>(sc.placement.size()));
  } else {
    sc.assignment = opass_assignment(cfg, core::PlannerKind::kMultiData, sc.nn, sc.tasks,
                                     sc.placement, streams.assign);
  }
  return sc;
}

namespace {

/// Shared tail of the static-plan scenarios: replay the assignment on the
/// flow simulator and reduce the trace.
RunOutput simulate_planned(const ExperimentConfig& cfg, PlannedScenario& sc, Rng& exec_rng,
                           Rng& fault_rng, Method method) {
  sim::Cluster cluster(cfg.nodes, cfg.cluster);
  runtime::StaticAssignmentSource source(sc.assignment);
  runtime::ExecutorConfig ec;
  ec.replica_choice = cfg.replica_choice;
  ec.process_count = static_cast<std::uint32_t>(sc.placement.size());
  ec.record_read_breakdown = cfg.spans != nullptr;
  PoolHarness pool(cfg);
  pool.arm(cluster, ec);
  obs::RunTimeline timeline(cfg.timeline, cluster, ec.process_count);
  ec.probe = timeline.executor_probe();
  timeline.add_expected_bytes(runtime::total_task_bytes(sc.nn, sc.tasks));
  FaultHarness faults(cfg, cluster, sc.nn, fault_rng);
  const auto exec = runtime::execute(cluster, sc.nn, sc.tasks, source, exec_rng, ec);
  timeline.finish();
  faults.export_stats(cfg);
  pool.export_stats(cfg);
  observe_run(cfg, method, exec, cluster);
  observe_spans(cfg, exec, sc.tasks, cluster);
  return reduce(sc.nn, sc.tasks, exec, sc.placement, &sc.assignment);
}

}  // namespace

RunOutput run_single_data(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                          Method method) {
  Streams streams(cfg.seed);
  auto sc = plan_single_data(cfg, chunk_count, method);
  return simulate_planned(cfg, sc, streams.exec, streams.faults, method);
}

RunOutput run_multi_data(const ExperimentConfig& cfg, std::uint32_t task_count, Method method,
                         const workload::MultiInputSpec& spec) {
  Streams streams(cfg.seed);
  auto sc = plan_multi_data(cfg, task_count, method, spec);
  return simulate_planned(cfg, sc, streams.exec, streams.faults, method);
}

RunOutput run_dynamic(const ExperimentConfig& cfg, std::uint32_t task_count, Method method,
                      const workload::GenomicsSpec& spec) {
  Streams streams(cfg.seed);
  auto nn = make_namenode(cfg);
  auto policy = dfs::make_placement(cfg.placement);
  workload::GenomicsSpec s = spec;
  s.partition_count = task_count;
  auto tasks = workload::make_genomics_workload(nn, *policy, streams.placement, s);
  const auto placement = make_process_placement(cfg, nn);

  sim::Cluster cluster(cfg.nodes, cfg.cluster);
  runtime::ExecutorConfig ec;
  ec.replica_choice = cfg.replica_choice;
  ec.process_count = static_cast<std::uint32_t>(placement.size());
  ec.record_read_breakdown = cfg.spans != nullptr;
  PoolHarness pool(cfg);
  pool.arm(cluster, ec);
  obs::RunTimeline timeline(cfg.timeline, cluster, ec.process_count);
  ec.probe = timeline.executor_probe();
  timeline.add_expected_bytes(runtime::total_task_bytes(nn, tasks));

  if (method == Method::kBaseline) {
    runtime::MasterWorkerSource source(task_count, streams.assign, /*shuffle=*/true);
    FaultHarness faults(cfg, cluster, nn, streams.faults);
    const auto exec = runtime::execute(cluster, nn, tasks, source, streams.exec, ec);
    timeline.finish();
    faults.export_stats(cfg);
    pool.export_stats(cfg);
    observe_run(cfg, method, exec, cluster);
    observe_spans(cfg, exec, tasks, cluster);
    return reduce(nn, tasks, exec, placement, nullptr);
  }
  // Opass: the matching-based guideline A*, consumed by the Section IV-D
  // master (own list first, then best-co-located steal from longest list).
  auto guideline = opass_assignment(cfg, core::PlannerKind::kSingleData, nn, tasks, placement,
                                    streams.assign, nullptr, pool.pool);
  core::OpassDynamicSource source(guideline, nn, tasks, placement);
  FaultHarness faults(cfg, cluster, nn, streams.faults);
  if (faults.injector) {
    // Membership changes feed back into the scheduler (DESIGN.md §11): a
    // detected death re-homes the dead node's pending list immediately; once
    // the layout settles again (join, recovery complete) the remaining tasks
    // are re-planned through the core::plan() facade and adopted as the new
    // guideline A*.
    faults.injector->set_membership_callback(
        [&](Seconds /*now*/, sim::MembershipEvent ev, dfs::NodeId node) {
          if (ev == sim::MembershipEvent::kNodeDead) {
            source.on_node_dead(node);
            return;
          }
          if (ev != sim::MembershipEvent::kNodeJoined &&
              ev != sim::MembershipEvent::kRecoveryComplete)
            return;
          const auto remaining = source.remaining_task_ids();
          if (remaining.empty()) return;
          // Re-plan the pending tasks (renumbered densely for the matcher,
          // mapped back to original ids for the scheduler).
          std::vector<runtime::Task> sub;
          sub.reserve(remaining.size());
          for (runtime::TaskId id : remaining) {
            runtime::Task copy = tasks[id];
            copy.id = static_cast<runtime::TaskId>(sub.size());
            sub.push_back(std::move(copy));
          }
          core::PlanOptions options;
          options.planner = core::PlannerKind::kSingleData;
          options.pool = pool.pool;
          auto sub_assignment =
              core::plan({&nn, &sub, &placement, &streams.assign}, options).assignment;
          runtime::Assignment mapped(sub_assignment.size());
          for (std::size_t p = 0; p < sub_assignment.size(); ++p)
            for (runtime::TaskId t : sub_assignment[p]) mapped[p].push_back(remaining[t]);
          source.adopt_guideline(mapped);
        });
  }
  const auto exec = runtime::execute(cluster, nn, tasks, source, streams.exec, ec);
  timeline.finish();
  faults.export_stats(cfg);
  pool.export_stats(cfg);
  observe_run(cfg, method, exec, cluster);
  observe_spans(cfg, exec, tasks, cluster);
  if (cfg.metrics != nullptr) obs::collect_dynamic(*cfg.metrics, source, "opass.dynamic");
  auto out = reduce(nn, tasks, exec, placement, &guideline);
  return out;
}

ParaViewOutput run_paraview(const ExperimentConfig& cfg, Method method,
                            const workload::ParaViewSpec& spec) {
  OPASS_REQUIRE(cfg.faults == nullptr,
                "ExperimentConfig.faults is not supported by run_paraview "
                "(fault plans apply to single, multi and dynamic runs)");
  Streams streams(cfg.seed);
  auto nn = make_namenode(cfg);
  auto policy = dfs::make_placement(cfg.placement);
  auto wl = workload::make_paraview_workload(nn, *policy, streams.placement, spec);
  const auto placement = make_process_placement(cfg, nn);
  const auto m = static_cast<std::uint32_t>(placement.size());

  ParaViewOutput out;
  sim::Cluster cluster(cfg.nodes, cfg.cluster);
  runtime::ExecutorConfig ec;
  ec.replica_choice = cfg.replica_choice;
  ec.process_count = m;
  ec.record_read_breakdown = cfg.spans != nullptr;
  PoolHarness pool(cfg);
  pool.arm(cluster, ec);
  // One timeline spans every rendering step; expected bytes grow per step.
  obs::RunTimeline timeline(cfg.timeline, cluster, m);
  ec.probe = timeline.executor_probe();

  runtime::ExecutionResult agg;  // run-level aggregate across rendering steps
  Bytes planned_total = 0, planned_local = 0;

  // One workspace across all rendering steps: per-step replanning reuses the
  // warmed network/solver arenas instead of reallocating them.
  graph::FlowWorkspace workspace;

  for (const auto& step : wl.steps) {
    // Tasks of this rendering step, renumbered densely for the assigners.
    std::vector<runtime::Task> step_tasks;
    step_tasks.reserve(step.size());
    for (runtime::TaskId t : step) {
      runtime::Task copy = wl.tasks[t];
      copy.id = static_cast<runtime::TaskId>(step_tasks.size());
      step_tasks.push_back(std::move(copy));
    }

    runtime::Assignment assignment;
    if (method == Method::kBaseline) {
      assignment = runtime::rank_interval_assignment(
          static_cast<std::uint32_t>(step_tasks.size()), m);
    } else {
      // Opass inside ReadXMLData(): assign this step's pieces by matching.
      assignment = opass_assignment(cfg, core::PlannerKind::kSingleData, nn, step_tasks,
                                    placement, streams.assign, &workspace, pool.pool);
    }
    const auto stats = core::evaluate_assignment(nn, step_tasks, assignment, placement);
    planned_total += stats.total_bytes;
    planned_local += stats.local_bytes;

    const Seconds step_start = cluster.simulator().now();
    timeline.add_expected_bytes(runtime::total_task_bytes(nn, step_tasks));
    runtime::StaticAssignmentSource source(assignment);
    auto exec = runtime::execute(cluster, nn, step_tasks, source, streams.exec, ec);
    out.step_times.push_back(exec.makespan - step_start);
    // Spans append per step against the step's own (renumbered) task table;
    // the aggregate's task ids would alias across steps.
    observe_spans(cfg, exec, step_tasks, cluster);
    accumulate(agg, exec);
  }

  for (Seconds t : out.step_times) out.total_time += t;
  timeline.finish();
  pool.export_stats(cfg);
  observe_run(cfg, method, agg, cluster);
  out.run.io = summarize(agg.trace.io_times());
  out.run.io_times = agg.trace.io_times_by_issue();
  for (Bytes b : agg.trace.bytes_served_per_node(nn.node_count()))
    out.run.served_mb.push_back(to_mib(b));
  out.run.local_fraction = agg.trace.local_fraction();
  out.run.makespan = out.total_time;
  out.run.tasks_executed = static_cast<std::uint32_t>(agg.trace.size());
  out.run.planned_local_fraction =
      planned_total ? static_cast<double>(planned_local) / static_cast<double>(planned_total)
                    : 0.0;
  return out;
}

IterativeOutput run_iterative(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                              std::uint32_t epochs, Method method,
                              Seconds compute_per_task) {
  OPASS_REQUIRE(epochs > 0, "need at least one epoch");
  OPASS_REQUIRE(cfg.faults == nullptr,
                "ExperimentConfig.faults is not supported by run_iterative "
                "(fault plans apply to single, multi and dynamic runs)");
  Streams streams(cfg.seed);
  auto nn = make_namenode(cfg);
  auto policy = dfs::make_placement(cfg.placement);
  auto tasks = workload::make_single_data_workload(nn, chunk_count, *policy,
                                                   streams.placement, compute_per_task);
  const auto placement = make_process_placement(cfg, nn);

  PoolHarness pool(cfg);
  // The assignment is computed once, before the first epoch — for Opass this
  // is where the matching overhead is amortized across every epoch.
  runtime::Assignment assignment;
  if (method == Method::kBaseline) {
    assignment = runtime::rank_interval_assignment(static_cast<std::uint32_t>(tasks.size()),
                                                   static_cast<std::uint32_t>(placement.size()));
  } else {
    assignment = opass_assignment(cfg, core::PlannerKind::kSingleData, nn, tasks, placement,
                                  streams.assign, nullptr, pool.pool);
  }

  IterativeOutput out;
  sim::Cluster cluster(cfg.nodes, cfg.cluster);
  runtime::ExecutorConfig ec;
  ec.replica_choice = cfg.replica_choice;
  ec.process_count = static_cast<std::uint32_t>(placement.size());
  ec.record_read_breakdown = cfg.spans != nullptr;
  pool.arm(cluster, ec);
  // One timeline spans every epoch; the same dataset is owed again each pass.
  obs::RunTimeline timeline(cfg.timeline, cluster, ec.process_count);
  ec.probe = timeline.executor_probe();
  runtime::ExecutionResult agg;  // run-level aggregate across epochs

  for (std::uint32_t e = 0; e < epochs; ++e) {
    const Seconds epoch_start = cluster.simulator().now();
    timeline.add_expected_bytes(runtime::total_task_bytes(nn, tasks));
    runtime::StaticAssignmentSource source(assignment);
    const auto exec = runtime::execute(cluster, nn, tasks, source, streams.exec, ec);
    out.epoch_times.push_back(exec.makespan - epoch_start);
    observe_spans(cfg, exec, tasks, cluster);
    accumulate(agg, exec);
  }
  for (Seconds t : out.epoch_times) out.total_time += t;
  timeline.finish();
  pool.export_stats(cfg);
  observe_run(cfg, method, agg, cluster);

  out.run.io = summarize(agg.trace.io_times());
  out.run.io_times = agg.trace.io_times_by_issue();
  for (Bytes b : agg.trace.bytes_served_per_node(nn.node_count()))
    out.run.served_mb.push_back(to_mib(b));
  out.run.local_fraction = agg.trace.local_fraction();
  out.run.makespan = out.total_time;
  out.run.tasks_executed = static_cast<std::uint32_t>(agg.trace.size());
  out.run.planned_local_fraction =
      core::evaluate_assignment(nn, tasks, assignment, placement).local_fraction();
  return out;
}

}  // namespace opass::exp
