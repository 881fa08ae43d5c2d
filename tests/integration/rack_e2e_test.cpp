// End-to-end rack-aware execution on an oversubscribed multi-rack cluster.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "opass/opass.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace opass {
namespace {

TEST(RackEndToEnd, RackAwareMatcherCutsOffRackTraffic) {
  const std::uint32_t nodes = 16, racks = 4;
  const auto topo = dfs::Topology::uniform_racks(nodes, racks);
  dfs::NameNode nn(topo, /*replication=*/1, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(41);
  const auto tasks = workload::make_single_data_workload(nn, 32, policy, rng);
  const auto placement = core::one_process_per_node(nn);

  sim::ClusterParams params;
  params.rack_uplink_bandwidth = 2.0 * params.nic_bandwidth;

  auto off_rack_reads = [&](const runtime::Assignment& a) {
    sim::Cluster cluster(topo, params);
    runtime::StaticAssignmentSource source(a);
    Rng exec_rng(13);
    const auto r = runtime::execute(cluster, nn, tasks, source, exec_rng);
    std::uint32_t off = 0;
    for (const auto& rec : r.trace.records())
      if (cluster.rack_of(rec.reader_node) != cluster.rack_of(rec.serving_node)) ++off;
    return std::pair{off, r.makespan};
  };

  Rng r1(5), r2(5);
  const auto node_only = core::plan({&nn, &tasks, &placement, &r1});
  const auto rack_aware =
      core::plan({&nn, &tasks, &placement, &r2}, {.planner = core::PlannerKind::kRackAware});

  const auto [off_node, mk_node] = off_rack_reads(node_only.assignment);
  const auto [off_rack, mk_rack] = off_rack_reads(rack_aware.assignment);
  EXPECT_LE(off_rack, off_node);
  // Node-local matches are identical; the rack phase only adds.
  EXPECT_EQ(rack_aware.locally_matched, node_only.locally_matched);
  // Everything completes either way.
  EXPECT_GT(mk_node, 0.0);
  EXPECT_GT(mk_rack, 0.0);
}

TEST(RackEndToEnd, RackedAndFlatClustersAgreeWhenUplinksAreWide) {
  // With effectively infinite uplinks and zero cross-rack latency, the rack
  // model must reproduce flat-network timings exactly.
  const std::uint32_t nodes = 8;
  dfs::NameNode nn(dfs::Topology::uniform_racks(nodes, 2), 2, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(43);
  const auto tasks = workload::make_single_data_workload(nn, 24, policy, rng);

  sim::ClusterParams flat;
  flat.cross_rack_latency = 0.0;
  sim::ClusterParams wide = flat;
  wide.rack_uplink_bandwidth = 1e12;

  auto io_times = [&](const dfs::Topology& topo, const sim::ClusterParams& p) {
    sim::Cluster cluster(topo, p);
    runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(24, nodes));
    Rng exec_rng(17);
    return runtime::execute(cluster, nn, tasks, source, exec_rng).trace.io_times();
  };

  const auto flat_times = io_times(dfs::Topology::single_rack(nodes), flat);
  const auto racked_times = io_times(dfs::Topology::uniform_racks(nodes, 2), wide);
  ASSERT_EQ(flat_times.size(), racked_times.size());
  for (std::size_t i = 0; i < flat_times.size(); ++i)
    EXPECT_NEAR(flat_times[i], racked_times[i], 1e-6) << "op " << i;
}

}  // namespace
}  // namespace opass
