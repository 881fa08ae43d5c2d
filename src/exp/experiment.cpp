#include "exp/experiment.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

#include "common/require.hpp"
#include "dfs/topology.hpp"
#include "obs/collect.hpp"
#include "opass/opass.hpp"
#include "runtime/task_source.hpp"
#include "sim/heartbeat.hpp"
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

/// Step 1 of every scenario: the namespace with the workload's dataset
/// stored by `store(nn, policy, rng)` (which returns the task table) and
/// `processes_per_node` processes on each node. The assignment stays empty.
template <typename Store>
PlannedScenario make_layout(const ExperimentConfig& cfg, Rng& placement_rng, Store store) {
  PlannedScenario sc{
      dfs::NameNode(dfs::Topology::single_rack(cfg.nodes), cfg.replication, cfg.chunk_size),
      {}, {}, {}, /*single_data=*/false};
  auto policy = dfs::make_placement(cfg.placement);
  sc.tasks = store(sc.nn, *policy, placement_rng);
  sc.placement = core::one_process_per_node(sc.nn, cfg.nodes * cfg.processes_per_node);
  return sc;
}

/// A method's static assignment, with the profile core::plan() scored it
/// with (none for the baseline, which is not planned).
struct Assigned {
  runtime::Assignment assignment;
  std::optional<core::AssignmentStats> stats;
};

/// Step 2: the method's static assignment of `tasks` — the rank-interval
/// baseline, or the Opass planner `kind` through the core::plan() facade
/// (whose counters accumulate in "opass.planner" across ParaView's per-step
/// plans; gauges keep the last step's value).
Assigned assign(const ExperimentConfig& cfg, Method method, core::PlannerKind kind,
                const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                const core::ProcessPlacement& placement, Rng& rng,
                graph::FlowWorkspace* workspace = nullptr) {
  if (method == Method::kBaseline)
    return {runtime::rank_interval_assignment(static_cast<std::uint32_t>(tasks.size()),
                                              static_cast<std::uint32_t>(placement.size())),
            std::nullopt};
  core::PlanOptions options;
  options.planner = kind;
  options.workspace = workspace;
  auto result = core::plan({&nn, &tasks, &placement, &rng}, options);
  if (cfg.metrics != nullptr) obs::collect_plan(*cfg.metrics, result, "opass.planner");
  return {std::move(result.assignment), result.stats};
}

/// The tasks `ids` names, renumbered densely (position i holds task ids[i])
/// for the planners and the executor: a ParaView step, or the pending tasks
/// of a dynamic re-plan.
std::vector<runtime::Task> subset(const std::vector<runtime::Task>& tasks,
                                  const std::vector<runtime::TaskId>& ids) {
  std::vector<runtime::Task> sub;
  sub.reserve(ids.size());
  for (runtime::TaskId id : ids) {
    runtime::Task copy = tasks[id];
    copy.id = static_cast<runtime::TaskId>(sub.size());
    sub.push_back(std::move(copy));
  }
  return sub;
}

/// Steps 3 and 4 (DESIGN.md §8): one run on the flow simulator. The
/// cluster, executor config, timeline and fault harness live
/// for the whole run; every job, ParaView step or iterative epoch is one
/// phase(), and finish() drains the simulator, feeds the sinks and reduces
/// once.
class Run {
 public:
  Run(const ExperimentConfig& cfg, Method method, dfs::NameNode& nn,
      const core::ProcessPlacement& placement, Streams& streams)
      : cfg_(cfg), method_(method), nn_(nn), placement_(placement), exec_rng_(streams.exec),
        cluster_(cfg.nodes, cfg.cluster),
        timeline_(cfg.timeline, cluster_, static_cast<std::uint32_t>(placement.size())) {
    ec_.replica_choice = cfg.replica_choice;
    ec_.placement = placement;  // every phase keeps the plan's nodes (and count)
    ec_.record_read_breakdown = cfg.spans != nullptr;
    ec_.probe = timeline_.executor_probe();
    // The scripted events and heartbeat checks are simulator timers, so they
    // interleave with every phase's reads deterministically.
    if (cfg.faults == nullptr) return;
    monitor_.emplace(cluster_, nn, /*namenode_host=*/0, streams.faults);
    injector_.emplace(cluster_, nn, *monitor_, *cfg.faults);
    injector_->set_probe(cfg.fault_probe);
    injector_->arm();
    monitor_->start(cfg.faults->horizon);
  }

  // Members hold each other's addresses (timeline probes, fault timers).
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// The armed fault injector, or null without a fault plan.
  sim::FaultInjector* injector() { return injector_ ? &*injector_ : nullptr; }

  /// Execute `tasks`, pulled from `source`, until the phase's last process
  /// drained and return the phase's duration; the next phase starts there,
  /// while fault timers and recovery traffic carry on. The run's makespan is
  /// the sum of phase durations. `tasks` and `planned` (null when the method
  /// has no plan) must outlive finish(), which appends the phase's spans and
  /// scores `planned` after the drain.
  Seconds phase(const std::vector<runtime::Task>& tasks, runtime::TaskSource& source,
                const runtime::Assignment* planned,
                const std::optional<core::AssignmentStats>& scored = std::nullopt) {
    const Seconds start = cluster_.simulator().now();
    timeline_.add_expected_bytes(runtime::total_task_bytes(nn_, tasks));
    runtime::Execution execution(cluster_, nn_, tasks, source, exec_rng_, ec_);
    execution.launch(start);
    execution.run_until_done();
    phases_.push_back({execution.take_result(), &tasks, planned, scored});
    const Seconds duration = phases_.back().exec.makespan - start;
    makespan_ += duration;
    return duration;
  }

  /// Drain the simulator (recovery traffic and fault timers past the last
  /// task), fold the phases into the aggregate, flush the timeline, export
  /// the fault counters, feed the metrics (in registration order
  /// "<method>.executor" → "<method>.cluster") and reduce the aggregate to
  /// the series the paper plots; the aggregate itself then moves into the
  /// raw sink.
  RunOutput finish() {
    cluster_.run();
    for (Phase& ph : phases_) fold(ph);
    phases_.clear();
    timeline_.finish();
    if (injector_ && cfg_.fault_stats != nullptr) *cfg_.fault_stats = injector_->stats();
    if (cfg_.metrics != nullptr) {
      const std::string prefix = method_name(method_);
      // Sized by the NameNode after the run: a node that joined mid-run
      // serves reads too.
      obs::collect_execution(*cfg_.metrics, agg_, nn_.node_count(), prefix + ".executor");
      obs::collect_cluster(*cfg_.metrics, cluster_, prefix + ".cluster");
    }
    RunOutput out;
    out.io = summarize(agg_.trace.io_times());
    out.io_times = agg_.trace.io_times_by_issue();
    for (Bytes b : agg_.trace.bytes_served_per_node(nn_.node_count()))
      out.served_mb.push_back(to_mib(b));
    out.local_fraction = agg_.trace.local_fraction();
    out.makespan = makespan_;
    out.tasks_executed = agg_.tasks_executed;
    out.planned_local_fraction = planned_.local_fraction();
    if (cfg_.raw != nullptr) *cfg_.raw = std::move(agg_);
    return out;
  }

 private:
  /// A finished phase, kept until the drain.
  struct Phase {
    runtime::ExecutionResult exec;
    const std::vector<runtime::Task>* tasks;
    const runtime::Assignment* planned;
    std::optional<core::AssignmentStats> scored;
  };

  /// Append the phase's spans against its own task table (ParaView's
  /// renumbered step ids would alias in the aggregate), score its plan
  /// against the namespace the run left behind (`scored`, the score
  /// core::plan() gave it, when no fault plan changed the namespace; else a
  /// fresh evaluate_assignment()), then fold it into the aggregate: the first
  /// phase is moved in; later traces, task spans and read breakdowns
  /// concatenate (breakdowns stay index-aligned with the records), finish
  /// times take the latest, counters sum, and process nodes stay the first
  /// phase's.
  void fold(Phase& ph) {
    runtime::ExecutionResult& exec = ph.exec;
    if (cfg_.spans != nullptr)
      obs::append_execution_spans(*cfg_.spans, exec, *ph.tasks, cluster_);
    if (ph.planned != nullptr) {
      const auto stats = ph.scored && cfg_.faults == nullptr
                             ? *ph.scored
                             : core::evaluate_assignment(nn_, *ph.tasks, *ph.planned, placement_);
      planned_.total_bytes += stats.total_bytes;
      planned_.local_bytes += stats.local_bytes;
    }
    if (&ph == &phases_.front()) {
      agg_ = std::move(exec);
      return;
    }
    for (const auto& rec : exec.trace.records()) agg_.trace.add(rec);
    agg_.task_spans.insert(agg_.task_spans.end(), exec.task_spans.begin(),
                           exec.task_spans.end());
    agg_.read_breakdowns.insert(agg_.read_breakdowns.end(), exec.read_breakdowns.begin(),
                                exec.read_breakdowns.end());
    if (agg_.process_finish_time.size() < exec.process_finish_time.size())
      agg_.process_finish_time.resize(exec.process_finish_time.size(), 0);
    for (std::size_t p = 0; p < exec.process_finish_time.size(); ++p)
      agg_.process_finish_time[p] =
          std::max(agg_.process_finish_time[p], exec.process_finish_time[p]);
    agg_.makespan = std::max(agg_.makespan, exec.makespan);
    agg_.tasks_executed += exec.tasks_executed;
    agg_.read_failures += exec.read_failures;
  }

  const ExperimentConfig& cfg_;
  Method method_;
  dfs::NameNode& nn_;
  const core::ProcessPlacement& placement_;
  Rng& exec_rng_;
  sim::Cluster cluster_;
  runtime::ExecutorConfig ec_;
  obs::RunTimeline timeline_;
  std::optional<sim::HeartbeatMonitor> monitor_;
  std::optional<sim::FaultInjector> injector_;
  std::vector<Phase> phases_;
  runtime::ExecutionResult agg_;
  Seconds makespan_ = 0;
  core::AssignmentStats planned_;  // byte sums of every scored phase
};

/// The static-plan scenarios: one phase replaying the scenario's plan.
RunOutput run_planned(const ExperimentConfig& cfg, Method method, PlannedScenario sc) {
  Streams streams(cfg.seed);
  Run run(cfg, method, sc.nn, sc.placement, streams);
  runtime::StaticAssignmentSource source(sc.assignment);
  run.phase(sc.tasks, source, &sc.assignment, sc.stats);
  return run.finish();
}

}  // namespace

const char* method_name(Method m) {
  return m == Method::kBaseline ? "baseline" : "opass";
}

PlannedScenario plan_single_data(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                                 Method method) {
  Streams streams(cfg.seed);
  auto sc = make_layout(cfg, streams.placement, [&](auto& nn, auto& policy, Rng& rng) {
    return workload::make_single_data_workload(nn, chunk_count, policy, rng);
  });
  auto [assignment, stats] = assign(cfg, method, core::PlannerKind::kSingleData, sc.nn,
                                    sc.tasks, sc.placement, streams.assign);
  sc.assignment = std::move(assignment);
  sc.single_data = true;
  sc.stats = stats;
  return sc;
}

PlannedScenario plan_multi_data(const ExperimentConfig& cfg, std::uint32_t task_count,
                                Method method, const workload::MultiInputSpec& spec) {
  Streams streams(cfg.seed);
  auto sc = make_layout(cfg, streams.placement, [&](auto& nn, auto& policy, Rng& rng) {
    return workload::make_multi_input_workload(nn, task_count, policy, rng, spec);
  });
  auto [assignment, stats] = assign(cfg, method, core::PlannerKind::kMultiData, sc.nn,
                                    sc.tasks, sc.placement, streams.assign);
  sc.assignment = std::move(assignment);
  sc.stats = stats;
  return sc;
}

RunOutput run_single_data(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                          Method method) {
  return run_planned(cfg, method, plan_single_data(cfg, chunk_count, method));
}

RunOutput run_multi_data(const ExperimentConfig& cfg, std::uint32_t task_count, Method method,
                         const workload::MultiInputSpec& spec) {
  return run_planned(cfg, method, plan_multi_data(cfg, task_count, method, spec));
}

RunOutput run_dynamic(const ExperimentConfig& cfg, std::uint32_t task_count, Method method,
                      const workload::GenomicsSpec& spec) {
  Streams streams(cfg.seed);
  workload::GenomicsSpec s = spec;
  s.partition_count = task_count;
  auto sc = make_layout(cfg, streams.placement, [&](auto& nn, auto& policy, Rng& rng) {
    return workload::make_genomics_workload(nn, policy, rng, s);
  });
  Run run(cfg, method, sc.nn, sc.placement, streams);
  if (method == Method::kBaseline) {
    runtime::MasterWorkerSource source(task_count, streams.assign);
    run.phase(sc.tasks, source, nullptr);
    return run.finish();
  }
  // Opass: the matching-based guideline A*, consumed by the Section IV-D
  // master (own list first, then best-co-located steal from longest list).
  auto [assignment, stats] = assign(cfg, method, core::PlannerKind::kSingleData, sc.nn,
                                    sc.tasks, sc.placement, streams.assign);
  sc.assignment = std::move(assignment);
  core::OpassDynamicSource source(sc.assignment, sc.nn, sc.tasks, sc.placement);
  if (sim::FaultInjector* injector = run.injector()) {
    // Membership changes feed back into the scheduler (DESIGN.md §11): a
    // detected death re-homes the dead node's pending list immediately; once
    // the layout settles again (join, recovery complete) the remaining tasks
    // are re-planned through the core::plan() facade and adopted as the new
    // guideline A*.
    injector->set_membership_callback(
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
          const auto pending = subset(sc.tasks, remaining);
          core::PlanOptions options;
          options.planner = core::PlannerKind::kSingleData;
          const auto replan =
              core::plan({&sc.nn, &pending, &sc.placement, &streams.assign}, options);
          runtime::Assignment mapped(replan.assignment.size());
          for (std::size_t p = 0; p < replan.assignment.size(); ++p)
            for (runtime::TaskId t : replan.assignment[p]) mapped[p].push_back(remaining[t]);
          source.adopt_guideline(mapped);
        });
  }
  run.phase(sc.tasks, source, &sc.assignment, stats);
  auto out = run.finish();
  if (cfg.metrics != nullptr) obs::collect_dynamic(*cfg.metrics, source, "opass.dynamic");
  return out;
}

ParaViewOutput run_paraview(const ExperimentConfig& cfg, Method method,
                            const workload::ParaViewSpec& spec) {
  Streams streams(cfg.seed);
  std::vector<std::vector<runtime::TaskId>> steps;
  auto sc = make_layout(cfg, streams.placement, [&](auto& nn, auto& policy, Rng& rng) {
    auto wl = workload::make_paraview_workload(nn, policy, rng, spec);
    steps = std::move(wl.steps);
    return std::move(wl.tasks);
  });
  Run run(cfg, method, sc.nn, sc.placement, streams);
  // One workspace across all rendering steps: per-step replanning reuses the
  // warmed network/solver arenas instead of reallocating them.
  graph::FlowWorkspace workspace;
  // Each step's table and plan live until run.finish() scores them.
  std::deque<std::vector<runtime::Task>> step_tasks;
  std::deque<Assigned> plans;
  ParaViewOutput out;
  for (const auto& step : steps) {
    const auto& tasks = step_tasks.emplace_back(subset(sc.tasks, step));
    // Opass inside ReadXMLData(): assign this step's pieces by matching, on
    // the namespace as the step starts.
    const auto& [assignment, stats] =
        plans.emplace_back(assign(cfg, method, core::PlannerKind::kSingleData, sc.nn, tasks,
                                  sc.placement, streams.assign, &workspace));
    runtime::StaticAssignmentSource source(assignment);
    out.step_times.push_back(run.phase(tasks, source, &assignment, stats));
  }
  out.run = run.finish();
  out.total_time = out.run.makespan;
  return out;
}

IterativeOutput run_iterative(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                              std::uint32_t epochs, Method method,
                              Seconds compute_per_task) {
  OPASS_REQUIRE(epochs > 0, "need at least one epoch");
  Streams streams(cfg.seed);
  auto sc = make_layout(cfg, streams.placement, [&](auto& nn, auto& policy, Rng& rng) {
    return workload::make_single_data_workload(nn, chunk_count, policy, rng, compute_per_task);
  });
  Run run(cfg, method, sc.nn, sc.placement, streams);
  // The assignment is computed once, before the first epoch — for Opass this
  // is where the matching overhead is amortized across every epoch.
  auto [assignment, stats] = assign(cfg, method, core::PlannerKind::kSingleData, sc.nn,
                                    sc.tasks, sc.placement, streams.assign);
  sc.assignment = std::move(assignment);
  IterativeOutput out;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    runtime::StaticAssignmentSource source(sc.assignment);
    out.epoch_times.push_back(run.phase(sc.tasks, source, &sc.assignment, stats));
  }
  out.run = run.finish();
  out.total_time = out.run.makespan;
  return out;
}

}  // namespace opass::exp
