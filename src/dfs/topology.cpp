#include "dfs/topology.hpp"

#include "common/require.hpp"

namespace opass::dfs {

Topology Topology::single_rack(std::uint32_t nodes) { return uniform_racks(nodes, 1); }

Topology Topology::uniform_racks(std::uint32_t nodes, std::uint32_t racks) {
  OPASS_REQUIRE(nodes > 0, "topology needs at least one node");
  OPASS_REQUIRE(racks > 0 && racks <= nodes, "rack count must be in [1, nodes]");
  Topology t;
  t.rack_count_ = racks;
  t.rack_of_.resize(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) t.rack_of_[i] = i % racks;
  return t;
}

RackId Topology::rack_of(NodeId node) const {
  OPASS_REQUIRE(node < rack_of_.size(), "node out of range");
  return rack_of_[node];
}

NodeId Topology::add_node(RackId rack) {
  OPASS_REQUIRE(rack < rack_count_, "new node's rack is not in the topology");
  rack_of_.push_back(rack);
  return static_cast<NodeId>(rack_of_.size() - 1);
}

std::vector<NodeId> Topology::nodes_on_rack(RackId rack) const {
  OPASS_REQUIRE(rack < rack_count_, "rack out of range");
  std::vector<NodeId> out;
  for (NodeId n = 0; n < rack_of_.size(); ++n)
    if (rack_of_[n] == rack) out.push_back(n);
  return out;
}

}  // namespace opass::dfs
