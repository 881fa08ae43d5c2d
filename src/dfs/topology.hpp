// Cluster topology: node count and rack assignment.
//
// The Marmot testbed connects all 128 nodes to one switch, so the default
// topology is a single rack; multi-rack layouts exist for the HDFS-default
// (rack-aware) placement policy ablation.
#pragma once

#include <cstdint>
#include <vector>

#include "dfs/types.hpp"

namespace opass::dfs {

/// Rack index.
using RackId = std::uint32_t;

/// Static cluster topology.
class Topology {
 public:
  /// Single-rack topology of `nodes` DataNodes (the paper's testbed shape).
  static Topology single_rack(std::uint32_t nodes);

  /// `racks` racks with nodes distributed round-robin.
  static Topology uniform_racks(std::uint32_t nodes, std::uint32_t racks);

  std::uint32_t node_count() const { return static_cast<std::uint32_t>(rack_of_.size()); }
  std::uint32_t rack_count() const { return rack_count_; }
  RackId rack_of(NodeId node) const;

  /// All nodes on a given rack.
  std::vector<NodeId> nodes_on_rack(RackId rack) const;

  /// Append a node on `rack`, an existing rack; returns the new node's id.
  NodeId add_node(RackId rack);

 private:
  std::vector<RackId> rack_of_;
  std::uint32_t rack_count_ = 0;
};

}  // namespace opass::dfs
