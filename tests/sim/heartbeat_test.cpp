// Heartbeat-driven failure detection and automatic re-replication.
#include <gtest/gtest.h>

#include "sim/heartbeat.hpp"
#include "workload/dataset.hpp"

namespace opass::sim {
namespace {

struct HeartbeatFixture : ::testing::Test {
  static constexpr std::uint32_t kNodes = 8;
  HeartbeatFixture()
      : nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize),
        cluster(kNodes),
        rng(3) {
    dfs::RandomPlacement policy;
    workload::make_single_data_workload(nn, 32, policy, rng);
  }
  dfs::NameNode nn;
  Cluster cluster;
  Rng rng;
};

TEST_F(HeartbeatFixture, NoFailureNoDeclarations) {
  HeartbeatMonitor monitor(cluster, nn, /*namenode_host=*/0, rng);
  monitor.start(/*horizon=*/60.0);
  cluster.run();
  EXPECT_EQ(monitor.recoveries(), 0u);
  for (dfs::NodeId n = 0; n < kNodes; ++n) EXPECT_FALSE(monitor.declared_dead(n));
}

TEST_F(HeartbeatFixture, CrashDetectedWithinMissWindow) {
  HeartbeatMonitor::Params p;
  p.interval = 2.0;
  p.miss_threshold = 3;
  HeartbeatMonitor monitor(cluster, nn, 0, rng, p);
  monitor.start(100.0);
  cluster.fail_node(5, 10.0);
  cluster.run();

  ASSERT_TRUE(monitor.declared_dead(5));
  EXPECT_EQ(monitor.recoveries(), 1u);
  // Detection after the miss window but without unbounded lag.
  EXPECT_GE(monitor.detection_time(5), 10.0 + p.interval * p.miss_threshold);
  EXPECT_LE(monitor.detection_time(5), 10.0 + p.interval * (p.miss_threshold + 3));
  // Healthy nodes never declared.
  for (dfs::NodeId n = 0; n < kNodes; ++n) {
    if (n != 5) {
      EXPECT_FALSE(monitor.declared_dead(n));
    }
  }
}

TEST_F(HeartbeatFixture, RecoveryRestoresReplication) {
  HeartbeatMonitor monitor(cluster, nn, 0, rng);
  monitor.start(120.0);
  cluster.fail_node(3, 5.0);
  cluster.run();

  ASSERT_TRUE(monitor.declared_dead(3));
  EXPECT_TRUE(nn.is_decommissioned(3));
  nn.check_invariants();
  for (dfs::ChunkId c = 0; c < nn.chunk_count(); ++c) {
    EXPECT_EQ(nn.locations(c).size(), 3u);
    EXPECT_FALSE(nn.chunk(c).has_replica_on(3));
  }
}

TEST_F(HeartbeatFixture, TwoFailuresBothRecovered) {
  HeartbeatMonitor monitor(cluster, nn, 0, rng);
  monitor.start(200.0);
  cluster.fail_node(2, 5.0);
  cluster.fail_node(6, 40.0);
  cluster.run();
  EXPECT_EQ(monitor.recoveries(), 2u);
  EXPECT_TRUE(monitor.declared_dead(2));
  EXPECT_TRUE(monitor.declared_dead(6));
  EXPECT_LT(monitor.detection_time(2), monitor.detection_time(6));
  nn.check_invariants();
}

TEST_F(HeartbeatFixture, SimulationQuiescesAtHorizon) {
  HeartbeatMonitor monitor(cluster, nn, 0, rng);
  monitor.start(30.0);
  const Seconds end = cluster.run();
  EXPECT_LE(end, 31.0);  // last beat/check at the horizon, plus wire time
}

TEST_F(HeartbeatFixture, Validation) {
  EXPECT_THROW(HeartbeatMonitor(cluster, nn, 99, rng), std::invalid_argument);
  HeartbeatMonitor::Params bad;
  bad.interval = 0;
  EXPECT_THROW(HeartbeatMonitor(cluster, nn, 0, rng, bad), std::invalid_argument);
  HeartbeatMonitor m(cluster, nn, 0, rng);
  EXPECT_THROW(m.start(-1.0), std::invalid_argument);
  EXPECT_THROW(m.declared_dead(99), std::invalid_argument);
  HeartbeatMonitor unstarted(cluster, nn, 0, rng);
  m.start(10.0);
  EXPECT_THROW(m.start(20.0), std::invalid_argument);  // a second start would beat twice
  const dfs::NodeId joined = cluster.add_node();
  EXPECT_THROW(unstarted.watch_node(joined, 10.0), std::invalid_argument);  // before start()
}

}  // namespace
}  // namespace opass::sim
