// Resource utilization accounting (busy time, throughput).
#include <gtest/gtest.h>

#include "sim/cluster.hpp"
#include "sim/flow_sim.hpp"

namespace opass::sim {
namespace {

TEST(Utilization, BusyTimeCoversActivePeriodsOnly) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  // Flow from t=2 to t=4 (200 bytes at 100 B/s).
  sim.after(2.0, [&](Seconds) { sim.start_flow({r}, 200, nullptr); });
  // A trailing timer extends the run to t=10.
  sim.at(10.0, [](Seconds) {});
  sim.run();
  EXPECT_DOUBLE_EQ(sim.resource_busy_time(r), 2.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // busy a fifth of the run
  EXPECT_DOUBLE_EQ(sim.resource_busy_time(r), 0.2 * sim.now());
}

TEST(Utilization, OverlappingFlowsCountOnce) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  sim.start_flow({r}, 100, nullptr);
  sim.start_flow({r}, 100, nullptr);
  sim.run();  // both at 50 B/s, done at t = 2
  EXPECT_DOUBLE_EQ(sim.resource_busy_time(r), 2.0);
  EXPECT_DOUBLE_EQ(sim.resource_busy_time(r), sim.now());  // busy the whole run
}

TEST(Utilization, BytesServedAccumulate) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  sim.start_flow({r}, 300, nullptr);
  sim.start_flow({r}, 200, nullptr);
  sim.run();
  EXPECT_NEAR(sim.resource_bytes_served(r), 500.0, 1e-6);
}

TEST(Utilization, ZeroWhenIdle) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_DOUBLE_EQ(sim.resource_busy_time(r), 0.0);
  EXPECT_DOUBLE_EQ(sim.resource_bytes_served(r), 0.0);
}

TEST(Utilization, ClusterDiskAndNicProbes) {
  ClusterParams p;
  p.disk_bandwidth = 100.0;
  p.nic_bandwidth = 100.0;
  p.disk_beta = 0.0;
  p.seek_latency = 0.0;
  p.remote_latency = 0.0;
  p.remote_stream_cap = 0.0;
  Cluster c(2, p);
  // Remote read: server 1's disk and NIC-out both busy for the transfer.
  c.read(0, 1, 100, nullptr);
  c.run();
  // Busy time as a fraction of the run.
  const auto busy = [&](ResourceRole role, dfs::NodeId node) {
    for (ResourceId r = 0; r < c.simulator().resource_count(); ++r) {
      const ResourceInfo info = c.resource_info(r);
      if (info.role == role && info.owner == node)
        return c.simulator().resource_busy_time(r) / c.simulator().now();
    }
    ADD_FAILURE() << "no resource for node " << node;
    return -1.0;
  };
  EXPECT_GT(busy(ResourceRole::kDisk, 1), 0.9);
  EXPECT_GT(busy(ResourceRole::kNicOut, 1), 0.9);
  EXPECT_DOUBLE_EQ(busy(ResourceRole::kDisk, 0), 0.0);
  EXPECT_DOUBLE_EQ(busy(ResourceRole::kNicOut, 0), 0.0);
}

TEST(Utilization, OutOfRangeThrows) {
  FlowSimulator sim;
  EXPECT_THROW(sim.resource_busy_time(0), std::invalid_argument);
  EXPECT_THROW(sim.resource_bytes_served(0), std::invalid_argument);
  Cluster c(1);
  EXPECT_THROW(c.disk_busy_time(5), std::invalid_argument);
}

}  // namespace
}  // namespace opass::sim
