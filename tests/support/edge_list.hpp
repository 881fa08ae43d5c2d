// A flow network's edges as a list. FlowNetwork::build() runs its emitter
// twice, so a test that draws its edges at random draws them once, into an
// EdgeList, and builds its networks from the list.
#pragma once

#include <vector>

#include "graph/flow_network.hpp"

namespace opass::support {

struct EdgeList {
  struct Edge {
    graph::NodeIdx from = 0;
    graph::NodeIdx to = 0;
    graph::Cap capacity = 0;
  };
  std::vector<Edge> edges;

  /// Append the edge from -> to; returns the id it gets in a built network.
  graph::EdgeIdx add(graph::NodeIdx from, graph::NodeIdx to, graph::Cap capacity) {
    edges.push_back({from, to, capacity});
    return static_cast<graph::EdgeIdx>(edges.size() - 1);
  }

  /// Build `net` with `nodes` nodes and these edges, in list order.
  void build(graph::FlowNetwork& net, graph::NodeIdx nodes) const {
    net.build(nodes, [this](graph::FlowNetwork::Builder& builder) {
      for (const Edge& e : edges) builder.add_edge(e.from, e.to, e.capacity);
    });
  }
};

}  // namespace opass::support
