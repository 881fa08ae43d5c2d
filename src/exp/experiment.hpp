// Experiment harness: one call per paper scenario, baseline vs Opass.
//
// Every experiment follows the same pipeline the paper uses:
//   1. stand up an HDFS-model namespace over an m-node cluster and store the
//      workload's dataset(s) (placement seeded => identical layout for both
//      methods);
//   2. compute a task assignment — the scenario's baseline or Opass;
//   3. replay the parallel execution on the flow-level cluster simulator,
//      one phase per job, ParaView rendering step or iterative epoch;
//   4. reduce the trace to the series the paper plots.
// experiment.cpp runs all five scenarios through that one pipeline
// (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "dfs/namenode.hpp"
#include "dfs/placement.hpp"
#include "dfs/replica_choice.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "obs/timeline.hpp"
#include "opass/assignment_stats.hpp"
#include "opass/process_index.hpp"
#include "runtime/executor.hpp"
#include "runtime/static_partitioner.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "workload/genomics.hpp"
#include "workload/multi_input.hpp"
#include "workload/paraview.hpp"

namespace opass::exp {

/// Assignment method under test.
enum class Method {
  kBaseline,  ///< rank-interval static / random-order master–worker
  kOpass,     ///< matching-based assignment (Sections IV-B/C/D)
};

const char* method_name(Method m);

/// Shared experiment knobs.
struct ExperimentConfig {
  std::uint32_t nodes = 64;
  std::uint32_t replication = 3;
  Bytes chunk_size = kDefaultChunkSize;
  std::uint64_t seed = 42;
  dfs::PlacementKind placement = dfs::PlacementKind::kRandom;
  dfs::ReplicaChoice replica_choice = dfs::ReplicaChoice::kRandom;
  /// Parallel processes per node (Marmot has 2 cores per node; the paper
  /// runs one process per node, our default). Every scenario honours it.
  std::uint32_t processes_per_node = 1;
  sim::ClusterParams cluster;
  /// Optional observability sinks (borrowed; must outlive the run call).
  /// When `metrics` is set, every run_* reduces the execution, the cluster's
  /// resource accounting and (for Opass) the planner into it via the obs
  /// collectors, prefixed with the method name ("baseline." / "opass.") so
  /// a comparison run fits in one registry. When `raw` is set, the full
  /// execution result (trace + task spans, aggregated across steps/epochs
  /// for the multi-phase scenarios) is moved into it at the end of the run —
  /// the input the Chrome trace exporter (obs/chrome_trace.hpp) wants.
  obs::MetricsRegistry* metrics = nullptr;
  runtime::ExecutionResult* raw = nullptr;
  /// When set, the run records every read's causal breakdown (admission
  /// wait, positioning, binding-resource intervals — DESIGN.md §13) and
  /// appends the execution's span log: task/read/wait spans with exact
  /// attribution tilings, per step for ParaView and per epoch for the
  /// iterative scenario. Observation only — the simulated schedule is
  /// byte-identical with or without the sink.
  obs::SpanLog* spans = nullptr;
  /// When set, the run streams time series into the recorder (per-node serve
  /// rate and in-flight reads, per-process queue depth, bytes remaining —
  /// see obs/timeline.hpp) and finish()es it at the run's end. One recorder
  /// covers one run: a `--method=both` comparison needs two.
  obs::TimelineRecorder* timeline = nullptr;
  /// Optional fault/churn scenario (borrowed; must outlive the run). When
  /// set, every run_* stands up a heartbeat monitor at the default
  /// sim::HeartbeatParams cadence (beats travel to node 0) and arms the plan
  /// once on the run's cluster before its first phase, so crashes abort
  /// in-flight reads, stragglers re-level active transfers, and
  /// re-replication traffic competes with the job's reads across every
  /// ParaView step and iterative epoch. The dynamic Opass scheduler reacts to
  /// membership events (dead-node list re-homing + a core::plan() re-plan of
  /// the remaining tasks).
  const sim::FaultPlan* faults = nullptr;
  /// Fault-lifecycle probe wired into the injector (borrowed), e.g.
  /// obs::FaultEventLog over the same plan. Only read when `faults` is set.
  Probe* fault_probe = nullptr;
  /// When set (and `faults` is set), the injector's final counters are
  /// copied out after the run.
  sim::FaultStats* fault_stats = nullptr;
};

/// Reduced results of one run.
struct RunOutput {
  Summary io;                        ///< per-chunk-read I/O time stats (s)
  std::vector<double> io_times;      ///< per-op I/O times in issue order (s)
  /// Bytes served per node (MiB), one entry per node the run ended with
  /// (a node a fault plan joined included).
  std::vector<double> served_mb;
  double local_fraction = 0;         ///< observed locally served op fraction
  double planned_local_fraction = 0; ///< assignment-level local byte fraction
  Seconds makespan = 0;              ///< parallel completion time
  std::uint32_t tasks_executed = 0;
};

/// The statically planned part of a scenario, materialized for tooling
/// (`opass_cli --audit`, the plan auditor) and tests: the namespace, the
/// workload, the process placement and the method's assignment, built
/// exactly as the corresponding run_* harness builds them — same seed
/// derivation, hence the same layout and the same plan the simulator would
/// execute.
struct PlannedScenario {
  dfs::NameNode nn;
  std::vector<runtime::Task> tasks;
  core::ProcessPlacement placement;
  runtime::Assignment assignment;
  bool single_data = false;  ///< every task reads exactly one chunk
  /// The profile core::plan() scored `assignment` with; none for the
  /// baseline, which is not planned.
  std::optional<core::AssignmentStats> stats = std::nullopt;
};

/// Build (without simulating) the single-data scenario's plan.
PlannedScenario plan_single_data(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                                 Method method);

/// Build (without simulating) the multi-data scenario's plan.
PlannedScenario plan_multi_data(const ExperimentConfig& cfg, std::uint32_t task_count,
                                Method method, const workload::MultiInputSpec& spec = {});

/// Single-data access (Figs. 7 and 8): `chunk_count` one-chunk tasks, equal
/// shares per process. Baseline = ParaView rank-interval assignment.
RunOutput run_single_data(const ExperimentConfig& cfg, std::uint32_t chunk_count, Method method);

/// Multi-data access (Figs. 9 and 10): `task_count` tasks with 30/20/10 MB
/// inputs. Baseline = rank-interval over tasks; Opass = Algorithm 1.
RunOutput run_multi_data(const ExperimentConfig& cfg, std::uint32_t task_count, Method method,
                         const workload::MultiInputSpec& spec = {});

/// Dynamic access (Fig. 11): master–worker dispatch over single-input tasks.
/// Baseline = random-order global queue; Opass = Section IV-D lists+stealing.
RunOutput run_dynamic(const ExperimentConfig& cfg, std::uint32_t task_count, Method method,
                      const workload::GenomicsSpec& spec = {});

/// ParaView result: overall trace plus per-step makespans.
struct ParaViewOutput {
  RunOutput run;                      ///< aggregated over all steps
  std::vector<Seconds> step_times;    ///< wall time per rendering step
  Seconds total_time = 0;             ///< sum of step times (the 167 s vs 98 s)
};

/// ParaView MultiBlock pipeline (Fig. 12): rendering steps with a barrier
/// between steps; per-step assignment baseline vs Opass.
ParaViewOutput run_paraview(const ExperimentConfig& cfg, Method method,
                            const workload::ParaViewSpec& spec = {});

/// Iterative-analysis result: per-epoch wall times plus the aggregate.
struct IterativeOutput {
  RunOutput run;                    ///< aggregated over all epochs
  std::vector<Seconds> epoch_times; ///< wall time per epoch (barrier to barrier)
  Seconds total_time = 0;
};

/// Iterative analysis (the paper's Introduction motivation: "iterative data
/// analysis, which involves moving data from storage to processes
/// repeatedly"): the same `chunk_count`-chunk dataset is read in `epochs`
/// synchronized passes. Opass computes the matching once and replays it each
/// epoch; the baseline re-reads by rank every epoch, paying the remote and
/// imbalanced pattern repeatedly.
IterativeOutput run_iterative(const ExperimentConfig& cfg, std::uint32_t chunk_count,
                              std::uint32_t epochs, Method method,
                              Seconds compute_per_task = 0);

}  // namespace opass::exp
