#include "graph/flow_network.hpp"

namespace opass::graph {

EdgeIdx FlowNetwork::Builder::add_edge(NodeIdx u, NodeIdx v, Cap capacity) {
  OPASS_REQUIRE(u < net_.nodes_ && v < net_.nodes_, "edge endpoint out of range");
  OPASS_REQUIRE(capacity >= 0, "edge capacity must be non-negative");
  const EdgeIdx e = edges_++;
  if (!fill_) {
    // The forward arc leaves u, the reverse arc leaves v.
    ++net_.offsets_[u + 1];
    ++net_.offsets_[v + 1];
    return e;
  }
  OPASS_CHECK(e < net_.edge_arc_.size(), "the emitter's second run added more edges");
  const ArcIdx fwd = net_.take_arc(u);
  const ArcIdx rev = net_.take_arc(v);
  net_.to_[fwd] = v;
  net_.residual_[fwd] = capacity;
  net_.partner_[fwd] = rev;
  net_.to_[rev] = u;
  net_.residual_[rev] = 0;
  net_.partner_[rev] = fwd;
  net_.edge_arc_[e] = fwd;
  return e;
}

void FlowNetwork::clear() {
  nodes_ = 0;
  to_.clear();
  residual_.clear();
  partner_.clear();
  edge_arc_.clear();
  offsets_.clear();
}

void FlowNetwork::start_count(NodeIdx node_count) {
  nodes_ = node_count;
  offsets_.assign(static_cast<std::size_t>(node_count) + 1, 0);
}

void FlowNetwork::start_fill(EdgeIdx edges) {
  for (NodeIdx u = 0; u < nodes_; ++u) offsets_[u + 1] += offsets_[u];
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  const std::size_t arcs = static_cast<std::size_t>(edges) * 2;
  to_.resize(arcs);
  residual_.resize(arcs);
  partner_.resize(arcs);
  edge_arc_.resize(edges);
}

ArcIdx FlowNetwork::take_arc(NodeIdx u) {
  // A row that overflows its count is one the second run filled differently;
  // with the edge counts equal, no overflow means every row is exact.
  OPASS_CHECK(cursor_[u] < offsets_[u + 1],
              "the emitter's second run filled a row differently");
  return cursor_[u]++;
}

void FlowNetwork::add_capacity(EdgeIdx e, Cap extra) {
  OPASS_REQUIRE(extra >= 0, "added capacity must be non-negative");
  residual_[forward_arc(e)] += extra;
}

void FlowNetwork::reset_flow() {
  for (const ArcIdx a : edge_arc_) {
    residual_[a] += residual_[partner_[a]];
    residual_[partner_[a]] = 0;
  }
}

}  // namespace opass::graph
