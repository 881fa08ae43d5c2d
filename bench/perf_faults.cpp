// perf_faults — deterministic fault/churn scenario suite with pinned metrics.
//
// Each scenario arms a scripted sim::FaultPlan (DESIGN.md §11) on a
// fixed-seed run and reports the outcome the failure model promises:
//
//   crash-64n-640t-r3        fail-stop mid-job; heartbeat detection +
//                            re-replication traffic competing with reads
//   straggler-64n-512t-dyn   slow node at 0.25x under the dynamic
//                            master-worker scheduler, later restored
//   churn-64n-640t-r2        join + rebalance + graceful decommission at r=2
//   drain-64n-320t-r1        decommission at r=1 — the only safe way to
//                            remove a node that holds sole replicas
//   hotset-spread-64n-256t   skewed (Zipf) hot-file popularity on spread
//                            placement, hottest node crashing mid-job
//
// Every recovery decision is deterministic (no RNG), so the printed metrics
// are exact simulation outputs: any drift means behaviour changed. stdout
// holds nothing host-dependent, so the perf_faults_pinned ctest pins its
// SHA-256; host wall time is measured only by the repository benchmark
// (bench/e2e).
#include <cstdio>

#include "dfs/placement.hpp"
#include "exp/experiment.hpp"
#include "obs/analytics.hpp"
#include "opass/opass.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "sim/fault_plan.hpp"
#include "workload/dataset.hpp"

namespace {

using namespace opass;

struct Outcome {
  Seconds makespan = 0;
  double degree_of_imbalance = 0;
  double local_pct = 0;
  std::uint64_t read_failures = 0;
  sim::FaultStats faults;
};

sim::FaultEvent make_event(Seconds at, sim::FaultKind kind, dfs::NodeId node) {
  sim::FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.node = node;
  return ev;
}

Outcome reduce(const exp::RunOutput& out, const runtime::ExecutionResult& raw,
               std::uint32_t nodes, const sim::FaultStats& stats) {
  const auto analytics = obs::analyze_execution(raw, nodes);
  Outcome o;
  o.makespan = out.makespan;
  o.degree_of_imbalance = analytics.serve_bytes.degree_of_imbalance;
  o.local_pct = 100.0 * out.local_fraction;
  o.read_failures = raw.read_failures;
  o.faults = stats;
  return o;
}

/// Fail-stop crash at t=3s into a 64-node single-data job: client-side
/// failover keeps every task completing while re-replication traffic shares
/// the disks and NICs with the remaining reads.
Outcome run_crash() {
  exp::ExperimentConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 42;
  sim::FaultPlan plan;
  plan.events.push_back(make_event(3.0, sim::FaultKind::kCrash, 17));
  sim::FaultStats stats;
  runtime::ExecutionResult raw;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  cfg.raw = &raw;
  const auto out = exp::run_single_data(cfg, 640, exp::Method::kOpass);
  return reduce(out, raw, cfg.nodes, stats);
}

/// Straggler under the dynamic scheduler: node 5 degrades to 0.25x at t=2s
/// and recovers at t=45s. Work stealing drains the slow node's list; no
/// membership event fires, so no re-plan — the outcome isolates the
/// scheduler's straggler tolerance.
Outcome run_straggler() {
  exp::ExperimentConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 11;
  sim::FaultPlan plan;
  auto slow = make_event(2.0, sim::FaultKind::kSlow, 5);
  slow.factor = 0.25;
  plan.events.push_back(slow);
  plan.events.push_back(make_event(45.0, sim::FaultKind::kRestore, 5));
  sim::FaultStats stats;
  runtime::ExecutionResult raw;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  cfg.raw = &raw;
  const auto out = exp::run_dynamic(cfg, 512, exp::Method::kOpass);
  return reduce(out, raw, cfg.nodes, stats);
}

/// Membership churn at r=2: an empty node joins at t=2s, the balancer
/// spreads load onto it at t=8s, and node 3 gracefully drains at t=20s.
/// Rebalance + drain copies are real traffic competing with the job.
Outcome run_churn() {
  exp::ExperimentConfig cfg;
  cfg.nodes = 64;
  cfg.replication = 2;
  cfg.seed = 7;
  sim::FaultPlan plan;
  auto join = make_event(2.0, sim::FaultKind::kJoin, dfs::kInvalidNode);
  join.rack = 0;
  plan.events.push_back(join);
  auto rebalance = make_event(8.0, sim::FaultKind::kRebalance, dfs::kInvalidNode);
  rebalance.tolerance = 2;
  plan.events.push_back(rebalance);
  plan.events.push_back(make_event(20.0, sim::FaultKind::kDecommission, 3));
  sim::FaultStats stats;
  runtime::ExecutionResult raw;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  cfg.raw = &raw;
  const auto out = exp::run_single_data(cfg, 640, exp::Method::kOpass);
  // The join extends the cluster to 65 nodes; late reads may hit it.
  return reduce(out, raw, cfg.nodes + 1, stats);
}

/// Graceful drain at r=1: every chunk on node 9 has no other replica, so a
/// crash would lose data — decommission moves them away first, so
/// lost_chunks stays 0.
Outcome run_drain_r1() {
  exp::ExperimentConfig cfg;
  cfg.nodes = 64;
  cfg.replication = 1;
  cfg.seed = 5;
  sim::FaultPlan plan;
  plan.events.push_back(make_event(2.0, sim::FaultKind::kDecommission, 9));
  sim::FaultStats stats;
  runtime::ExecutionResult raw;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  cfg.raw = &raw;
  const auto out = exp::run_single_data(cfg, 320, exp::Method::kOpass);
  return reduce(out, raw, cfg.nodes, stats);
}

/// Skewed hot-file popularity (Zipf s=1 over 8 files) on spread placement
/// (arXiv:1808.07545), with node 0 crashing mid-job. Spread's per-node
/// fill counters keep hot chunks fanned out, so the crash costs ~1/64th of
/// the replicas rather than a hot spot.
Outcome run_hotset() {
  const std::uint32_t nodes = 64;
  dfs::NameNode nn(dfs::Topology::single_rack(nodes), 3, kDefaultChunkSize);
  dfs::SpreadPlacement policy;
  Rng layout_rng(21);
  workload::SkewedWorkloadParams wp;
  wp.file_count = 8;
  wp.chunks_per_file = 16;
  wp.task_count = 256;
  wp.zipf_s = 1.0;
  const auto tasks = workload::make_skewed_workload(nn, wp, policy, layout_rng);
  const auto placement = core::one_process_per_node(nn);
  Rng assign_rng(22);
  const auto plan = core::plan({&nn, &tasks, &placement, &assign_rng});

  sim::FaultPlan fplan;
  fplan.events.push_back(make_event(2.0, sim::FaultKind::kCrash, 0));
  sim::Cluster cluster(nodes, {});
  Rng hb_rng(23);
  sim::HeartbeatMonitor monitor(cluster, nn, /*namenode_host=*/0, hb_rng);
  sim::FaultInjector injector(cluster, nn, monitor, fplan);
  injector.arm();
  monitor.start(fplan.horizon);

  runtime::StaticAssignmentSource source(plan.assignment);
  runtime::ExecutorConfig ec;
  ec.process_count = static_cast<std::uint32_t>(placement.size());
  Rng exec_rng(24);
  const auto exec = runtime::execute(cluster, nn, tasks, source, exec_rng, ec);

  const auto analytics = obs::analyze_execution(exec, nodes);
  Outcome o;
  o.makespan = exec.makespan;
  o.degree_of_imbalance = analytics.serve_bytes.degree_of_imbalance;
  o.local_pct = 100.0 * exec.trace.local_fraction();
  o.read_failures = exec.read_failures;
  o.faults = injector.stats();
  return o;
}

struct Scenario {
  const char* name;
  Outcome (*run)();
};

constexpr Scenario kScenarios[] = {
    {"crash-64n-640t-r3", run_crash},
    {"straggler-64n-512t-dyn", run_straggler},
    {"churn-64n-640t-r2", run_churn},
    {"drain-64n-320t-r1", run_drain_r1},
    {"hotset-spread-64n-256t", run_hotset},
};

}  // namespace

int main() {
  for (const Scenario& sc : kScenarios) {
    const Outcome o = sc.run();
    char metrics[512];
    std::snprintf(metrics, sizeof metrics,
                  "{\"makespan_s\": %.4f, \"degree_of_imbalance\": %.4f, "
                  "\"local_pct\": %.2f, \"read_failures\": %llu, "
                  "\"rereplicated_mib\": %.2f, \"replicas_copied\": %u, "
                  "\"recoveries\": %u, \"lost_chunks\": %u, \"aborted_copies\": %u}",
                  o.makespan, o.degree_of_imbalance, o.local_pct,
                  static_cast<unsigned long long>(o.read_failures),
                  to_mib(o.faults.rereplicated_bytes), o.faults.replicas_copied,
                  o.faults.recoveries, o.faults.lost_chunks, o.faults.aborted_copies);
    std::printf("%-24s %s\n", sc.name, metrics);
  }
  return 0;
}
