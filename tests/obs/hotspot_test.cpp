// The per-node serving report behind opass_cli --hotspots: the ranking, each
// node's local share and the skew summaries.
#include "obs/hotspot.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace opass::obs {
namespace {

sim::ReadRecord read_from(dfs::NodeId server, Bytes bytes, bool local) {
  sim::ReadRecord r;
  r.serving_node = server;
  r.bytes = bytes;
  r.local = local;
  return r;
}

TEST(HotspotReport, RanksByBytesServedWithTiesByNodeId) {
  // Served: node 0 200 B over two reads (one local), node 1 100 B, node 2
  // 200 B, node 3 100 B (local).
  sim::TraceRecorder trace;
  trace.add(read_from(2, 200, false));
  trace.add(read_from(3, 100, true));
  trace.add(read_from(0, 150, true));
  trace.add(read_from(1, 100, false));
  trace.add(read_from(0, 50, false));
  const HotspotReport report = hotspot_report(trace, 4);

  std::vector<dfs::NodeId> order;
  for (const NodeHotspot& row : report.rows) order.push_back(row.node);
  EXPECT_EQ(order, (std::vector<dfs::NodeId>{0, 2, 1, 3}));
  EXPECT_EQ(report.rows[0].bytes_served, 200u);
  EXPECT_EQ(report.rows[0].ops_served, 2u);
  EXPECT_DOUBLE_EQ(report.rows[0].local_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(report.rows[1].local_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(report.rows[3].local_fraction(), 1.0);
  EXPECT_EQ(report.total_bytes, 600u);
  // Jain: 600^2 / (4 * (200^2 + 100^2 + 200^2 + 100^2)) = 0.9.
  EXPECT_DOUBLE_EQ(report.jain_index, 0.9);
  EXPECT_DOUBLE_EQ(report.max_over_mean, 200.0 / 150.0);
  EXPECT_DOUBLE_EQ(report.max_over_min, 2.0);
}

TEST(HotspotReport, IdleNodeRanksLastAndZeroesMaxOverMin) {
  sim::TraceRecorder trace;
  trace.add(read_from(1, 300, true));
  trace.add(read_from(0, 100, false));
  const HotspotReport report = hotspot_report(trace, 3);

  const NodeHotspot& idle = report.rows.back();
  EXPECT_EQ(idle.node, 2u);
  EXPECT_EQ(idle.ops_served, 0u);
  EXPECT_DOUBLE_EQ(idle.local_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(report.max_over_mean, 300.0 / (400.0 / 3.0));
  EXPECT_DOUBLE_EQ(report.max_over_min, 0.0);
}

}  // namespace
}  // namespace opass::obs
