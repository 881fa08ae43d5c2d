// Golden pin of heartbeat rounds on racks (DESIGN.md §8, §11).
//
// A static baseline replay with cross-rack reads runs on a rack topology
// while every node heartbeats a NameNode host that also beats to itself. Node
// 9 crashes exactly on a beat boundary and a node joins at 6 s, so from 9 s on
// the joiner's beats coincide with the main round's. The rows cover the
// round's two start times (the default cross-rack latency), one start time
// with the racks interleaved (no cross-rack latency) and a flat cluster. Every
// double is pinned at full precision, so a change that reorders a beat, a
// message or a flow detach shows up here.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "runtime/executor.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task_source.hpp"
#include "sim/fault_plan.hpp"
#include "workload/dataset.hpp"

namespace opass::sim {
namespace {

constexpr std::uint32_t kNodes = 16;
constexpr std::uint32_t kTasks = 160;
constexpr dfs::NodeId kHost = 5;

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// FNV-1a 64-bit of a string, as 16 hex digits.
std::string hash(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

struct Pin {
  std::string counters;   ///< detections, recoveries, engine counters, end time
  std::string resources;  ///< hash of every resource's bytes served and busy time
  std::string trace;      ///< hash of every read record, completion order
};

Pin run(bool racks, Seconds cross_rack_latency) {
  const dfs::Topology topology =
      racks ? dfs::Topology::uniform_racks(kNodes, 4) : dfs::Topology::single_rack(kNodes);
  dfs::NameNode nn(topology, 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng layout_rng(17);
  const auto tasks = workload::make_single_data_workload(nn, kTasks, policy, layout_rng);

  ClusterParams params;
  if (racks) params.rack_uplink_bandwidth = 40.0 * 1024 * 1024;  // binds cross-rack reads
  params.cross_rack_latency = cross_rack_latency;
  Cluster cluster(topology, params);
  Rng fault_rng(5);
  HeartbeatMonitor monitor(cluster, nn, kHost, fault_rng);
  FaultPlan plan;
  plan.horizon = 45.0;
  FaultEvent crash;
  crash.at = 3.0;  // a beat boundary: node 9 still sends that beat
  crash.kind = FaultKind::kCrash;
  crash.node = 9;
  plan.events.push_back(crash);
  FaultEvent join;
  join.at = 6.0;
  join.kind = FaultKind::kJoin;
  join.rack = racks ? 2 : 0;
  plan.events.push_back(join);
  FaultInjector injector(cluster, nn, monitor, plan);
  injector.arm();
  monitor.start(plan.horizon);

  runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(kTasks, kNodes));
  Rng exec_rng(23);
  const auto exec = runtime::execute(cluster, nn, tasks, source, exec_rng);

  const FlowSimulator& sim = cluster.simulator();
  Pin pin;
  for (dfs::NodeId n = 0; n < cluster.node_count(); ++n)
    pin.counters += exact(monitor.detection_time(n)) + " ";
  pin.counters += "recoveries=" + std::to_string(monitor.recoveries());
  pin.counters += " recomputes=" + std::to_string(sim.rate_recomputes());
  pin.counters += " touched=" + std::to_string(sim.rate_recompute_touched_flows());
  pin.counters += " stale=" + std::to_string(sim.eta_stale_pops());
  pin.counters += " peak=" + std::to_string(sim.peak_active_flows());
  pin.counters += " now=" + exact(sim.now());
  pin.counters += " reads=" + std::to_string(exec.trace.size());
  std::string all;
  for (ResourceId r = 0; r < sim.resource_count(); ++r)
    all += exact(sim.resource_bytes_served(r)) + "|" + exact(sim.resource_busy_time(r)) + "\n";
  pin.resources = hash(all);
  all.clear();
  for (const ReadRecord& rec : exec.trace.records()) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%u|%u|%u|%u|%" PRIu64 "|%.17g|%.17g|%d\n", rec.process,
                  rec.reader_node, rec.serving_node, rec.chunk,
                  static_cast<std::uint64_t>(rec.bytes), rec.issue_time, rec.end_time,
                  rec.local ? 1 : 0);
    all += buf;
  }
  pin.trace = hash(all);
  return pin;
}

TEST(HeartbeatGolden, RackRoundsWithCrashJoinAndLoopback) {
  struct Row {
    const char* name;
    bool racks;
    Seconds cross_rack_latency;
    const char* counters;
    const char* resources;
    const char* trace;
  };
  const Row rows[] = {
      {"racks, two start times", true, 0.001,
       "-1 -1 -1 -1 -1 -1 -1 -1 -1 18 -1 -1 -1 -1 -1 -1 -1 recoveries=1 recomputes=411 "
       "touched=6015 stale=1336 peak=33 now=76.399836808910166 reads=160",
       "1e050df10a261314", "394ee2a08446ca26"},
      {"racks, one start time", true, 0.0,
       "-1 -1 -1 -1 -1 -1 -1 -1 -1 18 -1 -1 -1 -1 -1 -1 -1 recoveries=1 recomputes=394 "
       "touched=5945 stale=1338 peak=35 now=76.402291313740065 reads=160",
       "47b03e4ea7dcc2f6", "063f7522352ba6ba"},
      {"flat", false, 0.001,
       "-1 -1 -1 -1 -1 -1 -1 -1 -1 18 -1 -1 -1 -1 -1 -1 -1 recoveries=1 recomputes=316 "
       "touched=1182 stale=197 peak=34 now=59.387568420290691 reads=160",
       "8aacade6d4d3f77d", "4504847d743ca80d"},
  };
  // Recorded before beat groups, batched sends and the flow position index.
  for (const Row& row : rows) {
    const Pin pin = run(row.racks, row.cross_rack_latency);
    EXPECT_EQ(pin.counters, row.counters) << row.name;
    EXPECT_EQ(pin.resources, row.resources) << row.name;
    EXPECT_EQ(pin.trace, row.trace) << row.name;
  }
}

}  // namespace
}  // namespace opass::sim
