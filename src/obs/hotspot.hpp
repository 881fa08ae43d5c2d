// Per-node hotspot report: which storage nodes served how much and how
// skewed the load is.
//
// This is the paper's serve-imbalance analysis (Figs. 1, 8, 10) packaged as
// a reusable report: nodes ranked by bytes served, with Jain's fairness
// index and max/mean, max/min ratios summarizing the skew that remote and
// imbalanced access induce. The CLI prints it under `--hotspots`; tests use
// it to check that observed imbalance ordering matches the planner's
// assignment_stats prediction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "dfs/types.hpp"
#include "sim/trace.hpp"

namespace opass::obs {

/// One node's share of the serving load.
struct NodeHotspot {
  dfs::NodeId node = 0;
  Bytes bytes_served = 0;          ///< payload bytes this node's disk served
  std::uint32_t ops_served = 0;    ///< chunk reads this node served
  std::uint32_t local_ops = 0;     ///< of those, reads by a co-located process

  /// Fraction of this node's served ops that were local; 0 when idle.
  double local_fraction() const {
    return ops_served ? static_cast<double>(local_ops) / ops_served : 0.0;
  }
};

/// The full report: per-node rows plus skew summaries.
struct HotspotReport {
  /// Rows sorted by bytes_served descending (ties broken by node id), so
  /// rows.front() is the hottest node.
  std::vector<NodeHotspot> rows;
  Bytes total_bytes = 0;
  double jain_index = 0;     ///< Jain fairness of bytes_served; 1 = balanced
  double max_over_mean = 0;  ///< hottest node vs the average
  double max_over_min = 0;   ///< hottest vs coldest (0 when a node served 0)

  /// Render as an aligned ASCII table with the summary line, for terminals.
  std::string render() const;
};

/// Reduce a trace to the report. `node_count` sizes the per-node rows.
HotspotReport hotspot_report(const sim::TraceRecorder& trace, std::uint32_t node_count);

}  // namespace opass::obs
