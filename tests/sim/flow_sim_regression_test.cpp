// Golden-determinism suite for the flow-level simulator.
//
// Pins the observable outputs of four seed scenarios — makespan, the full
// read trace (every record, in completion order), and the per-resource
// busy-time / bytes-served / peak-load / degraded-join tallies — as digest
// strings captured from the reference implementation; the static replays also
// pin the engine's slot and re-leveling counters and the serve-bytes
// imbalance analytics. Any engine change that
// alters event ordering, completion sets, max-min rates, or accounting shows
// up as a digest mismatch; pure mechanical speedups (the active-flow index,
// the ETA heap, incremental re-leveling) must keep every digest stable.
//
// Continuous values are serialized at 6 significant digits: tight enough
// that any behavioral change (different rates, different event times) is
// caught, loose enough that sub-nanosecond floating-point reassociation in
// an equivalent engine does not flake the suite. Discrete values (record
// fields, counts, peaks) are pinned exactly.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "obs/analytics.hpp"
#include "opass/opass.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace opass {
namespace {

std::string fmt6(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// FNV-1a 64-bit over a byte string.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Serialize every trace record (completion order) and hash the bytes.
std::string trace_digest(const sim::TraceRecorder& trace) {
  std::string all;
  all.reserve(trace.size() * 64);
  for (const sim::ReadRecord& r : trace.records()) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%u|%u|%u|%u|%" PRIu64 "|%s|%s|%d\n", r.process,
                  r.reader_node, r.serving_node, r.chunk,
                  static_cast<std::uint64_t>(r.bytes), fmt6(r.issue_time).c_str(),
                  fmt6(r.end_time).c_str(), r.local ? 1 : 0);
    all += buf;
  }
  return hex64(fnv1a(all));
}

/// Serialize every simulator resource's cumulative accounting and hash it.
std::string resource_digest(const sim::FlowSimulator& sim) {
  std::string all;
  for (sim::ResourceId r = 0; r < sim.resource_count(); ++r) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%u|%s|%s|%u|%" PRIu64 "\n", r,
                  fmt6(sim.resource_busy_time(r)).c_str(),
                  fmt6(sim.resource_bytes_served(r)).c_str(), sim.resource_peak_load(r),
                  sim.resource_degraded_joins(r));
    all += buf;
  }
  return hex64(fnv1a(all));
}

std::string digest(const runtime::ExecutionResult& exec, const sim::Cluster& cluster) {
  std::string d;
  d += "makespan=" + fmt6(exec.makespan);
  d += " reads=" + std::to_string(exec.trace.size());
  d += " local=" + fmt6(exec.trace.local_fraction());
  d += " failures=" + std::to_string(exec.read_failures);
  d += " trace=" + trace_digest(exec.trace);
  d += " resources=" + resource_digest(cluster.simulator());
  return d;
}

/// The engine's slot and re-leveling counters and the serve-bytes analytics
/// of one replay: what digest() leaves out.
std::string replay_counters(const runtime::ExecutionResult& exec, const sim::Cluster& cluster,
                            std::uint32_t nodes) {
  const sim::FlowSimulator& sim = cluster.simulator();
  const obs::ExecutionAnalytics analytics = obs::analyze_execution(exec, nodes);
  const obs::ImbalanceStats& serve = analytics.serve_bytes;
  std::string d;
  d += "flow_slots=" + std::to_string(sim.flow_slot_count());
  d += " recomputes=" + std::to_string(sim.rate_recomputes());
  d += " touched=" + std::to_string(sim.rate_recompute_touched_flows());
  d += " doi=" + fmt6(serve.degree_of_imbalance);
  d += " cv=" + fmt6(serve.cv);
  d += " gini=" + fmt6(serve.gini);
  d += " peak_over_mean=" + fmt6(serve.peak_over_mean);
  d += " stragglers=" + std::to_string(analytics.straggler_nodes.size()) + "/" +
       std::to_string(analytics.straggler_processes.size());
  return d;
}

struct Replay {
  std::string digest;    ///< digest()
  std::string counters;  ///< replay_counters()
};

/// Static Opass plan replayed one process per node: 100% local, one flow per
/// disk at a time.
Replay run_static_local(std::uint32_t nodes, std::uint32_t tasks_n, std::uint64_t seed) {
  dfs::NameNode nn(dfs::Topology::single_rack(nodes), 3);
  dfs::RandomPlacement policy;
  Rng layout_rng(seed);
  const auto tasks = workload::make_single_data_workload(nn, tasks_n, policy, layout_rng);
  const auto placement = core::one_process_per_node(nn);
  Rng assign_rng(seed * 7919 + 1);
  const auto plan = core::plan({&nn, &tasks, &placement, &assign_rng});

  sim::Cluster cluster(nodes, {});
  runtime::StaticAssignmentSource source(plan.assignment);
  runtime::ExecutorConfig ec;
  ec.process_count = static_cast<std::uint32_t>(placement.size());
  Rng exec_rng(seed * 7919 + 2);
  const auto exec = runtime::execute(cluster, nn, tasks, source, exec_rng, ec);
  return {digest(exec, cluster), replay_counters(exec, cluster, nodes)};
}

/// Master–worker queue with random replica choice: mostly-remote reads, NIC
/// flows, cross-node components, the remote-stream cap — plus a mid-run node
/// failure exercising cancel + retry determinism.
std::string run_random_remote_with_failure(std::uint32_t nodes, std::uint32_t tasks_n,
                                           std::uint64_t seed) {
  dfs::NameNode nn(dfs::Topology::single_rack(nodes), 3);
  dfs::RandomPlacement policy;
  Rng layout_rng(seed);
  const auto tasks = workload::make_single_data_workload(nn, tasks_n, policy, layout_rng);

  sim::Cluster cluster(nodes, {});
  cluster.fail_node(nodes - 1, 2.0);
  Rng src_rng(seed + 17);
  runtime::MasterWorkerSource source(tasks_n, src_rng);
  runtime::ExecutorConfig ec;
  ec.replica_choice = dfs::ReplicaChoice::kRandom;
  Rng exec_rng(seed * 7919 + 2);
  const auto exec = runtime::execute(cluster, nn, tasks, source, exec_rng, ec);
  return digest(exec, cluster);
}

/// Rack topology with shared uplinks, DataNode admission control and
/// least-loaded replica choice: wide multi-resource flows, admission FIFOs.
std::string run_rack_admission(std::uint32_t nodes, std::uint32_t tasks_n,
                               std::uint64_t seed) {
  dfs::NameNode nn(dfs::Topology::uniform_racks(nodes, 3), 3);
  dfs::RandomPlacement policy;
  Rng layout_rng(seed);
  const auto tasks = workload::make_single_data_workload(nn, tasks_n, policy, layout_rng);

  sim::ClusterParams params;
  params.rack_uplink_bandwidth = 200.0 * 1024 * 1024;
  params.max_concurrent_serves = 2;
  sim::Cluster cluster(dfs::Topology::uniform_racks(nodes, 3), params);
  Rng src_rng(seed + 29);
  runtime::MasterWorkerSource source(tasks_n, src_rng);
  runtime::ExecutorConfig ec;
  ec.replica_choice = dfs::ReplicaChoice::kLeastLoaded;
  Rng exec_rng(seed * 7919 + 2);
  const auto exec = runtime::execute(cluster, nn, tasks, source, exec_rng, ec);
  return digest(exec, cluster);
}

/// Delay scheduling: kWait retry timers advance virtual time while unrelated
/// flows are mid-transfer — the pure-timer event window the lazy-ETA engine
/// must traverse without perturbing rates.
std::string run_delay_scheduling(std::uint32_t nodes, std::uint32_t tasks_n,
                                 std::uint64_t seed) {
  dfs::NameNode nn(dfs::Topology::single_rack(nodes), 3);
  dfs::RandomPlacement policy;
  Rng layout_rng(seed);
  const auto tasks = workload::make_single_data_workload(nn, tasks_n, policy, layout_rng);
  const auto placement = core::one_process_per_node(nn);

  sim::Cluster cluster(nodes, {});
  Rng src_rng(seed + 41);
  runtime::DelaySchedulingSource source(nn, tasks, placement, src_rng,
                                        /*max_delay=*/0.2);
  runtime::ExecutorConfig ec;
  ec.process_count = static_cast<std::uint32_t>(placement.size());
  Rng exec_rng(seed * 7919 + 2);
  const auto exec = runtime::execute(cluster, nn, tasks, source, exec_rng, ec);
  return digest(exec, cluster);
}

// Expected digests were captured from the pre-rewrite reference engine
// (PR 3 tree) and must never change without a deliberate model change.
// StaticLocalReplay's rows at 128 to 1,024 nodes, every counters string and
// RackAdmission's digest were recorded later, from the same engine.
TEST(FlowSimGolden, StaticLocalReplay) {
  struct Row {
    std::uint32_t nodes;
    std::uint32_t tasks;
    std::uint64_t seed;
    const char* digest;
    const char* counters;
  };
  const Row rows[] = {
      {64, 640, 42,
       "makespan=9.03333 reads=640 local=1 failures=0 "
       "trace=c9ca5b2e480c06d3 resources=72c837910e723e45",
       "flow_slots=64 recomputes=20 touched=640 doi=0 cv=0 gini=0 peak_over_mean=1 "
       "stragglers=0/0"},
      {128, 1280, 3,
       "makespan=9.03333 reads=1280 local=1 failures=0 "
       "trace=a9d55f1b8caa91f1 resources=b348d1946df604a5",
       "flow_slots=128 recomputes=20 touched=1280 doi=0 cv=0 gini=0 peak_over_mean=1 "
       "stragglers=0/0"},
      {256, 2560, 6,
       "makespan=9.03333 reads=2560 local=1 failures=0 "
       "trace=4e9ebc2bd612a72f resources=e4eb5fd112915a19",
       "flow_slots=256 recomputes=20 touched=2560 doi=0 cv=0 gini=0 peak_over_mean=1 "
       "stragglers=0/0"},
      {256, 10240, 7,
       "makespan=36.1333 reads=10240 local=1 failures=0 "
       "trace=ead7e6b1efc483eb resources=57f00db2a79a9fd9",
       "flow_slots=256 recomputes=80 touched=10240 doi=0 cv=0 gini=0 peak_over_mean=1 "
       "stragglers=0/0"},
      {1024, 40960, 9,
       "makespan=36.1333 reads=40960 local=1 failures=0 "
       "trace=57f17071912771bf resources=83fbd43bd0321dab",
       "flow_slots=1024 recomputes=80 touched=40960 doi=0 cv=0 gini=0 peak_over_mean=1 "
       "stragglers=0/0"},
  };
  for (const Row& row : rows) {
    const Replay replay = run_static_local(row.nodes, row.tasks, row.seed);
    EXPECT_EQ(replay.digest, row.digest) << row.tasks << " tasks";
    EXPECT_EQ(replay.counters, row.counters) << row.tasks << " tasks";
  }
}

TEST(FlowSimGolden, RandomRemoteWithFailure) {
  EXPECT_EQ(run_random_remote_with_failure(32, 320, 7),
            "makespan=36.1221 reads=320 local=0.075 failures=1 "
            "trace=8f4bb9af1fad1705 resources=005b636d76f03d46");
}

TEST(FlowSimGolden, RackAdmission) {
  EXPECT_EQ(run_rack_admission(24, 192, 11),
            "makespan=18.2751 reads=192 local=0.130208 failures=0 "
            "trace=981e29f6dd0fd0d7 resources=c52f67723e4ff9a7");
}

TEST(FlowSimGolden, DelayScheduling) {
  EXPECT_EQ(run_delay_scheduling(16, 96, 5),
            "makespan=6.952 reads=96 local=0.979167 failures=0 "
            "trace=c536741214361be4 resources=29828fed82811f53");
}

}  // namespace
}  // namespace opass
