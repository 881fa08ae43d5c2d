#include "graph/flow_network.hpp"

namespace opass::graph {

void FlowNetwork::clear(NodeIdx node_count) {
  nodes_ = node_count;
  edge_tail_.clear();
  edge_head_.clear();
  edge_cap_.clear();
  laid_out_ = 0;
  finalized_ = false;
}

NodeIdx FlowNetwork::add_nodes(NodeIdx count) {
  const NodeIdx first = nodes_;
  nodes_ += count;
  finalized_ = false;
  return first;
}

EdgeIdx FlowNetwork::add_edge(NodeIdx u, NodeIdx v, Cap capacity) {
  OPASS_REQUIRE(u < nodes_ && v < nodes_, "edge endpoint out of range");
  OPASS_REQUIRE(capacity >= 0, "edge capacity must be non-negative");
  const auto e = static_cast<EdgeIdx>(edge_cap_.size());
  edge_tail_.push_back(u);
  edge_head_.push_back(v);
  edge_cap_.push_back(capacity);
  finalized_ = false;
  return e;
}

Cap FlowNetwork::flow(EdgeIdx e) const {
  OPASS_REQUIRE(e < edge_cap_.size(), "edge index out of range");
  // An edge added since the last layout has routed nothing yet; a laid-out
  // edge's arcs stay valid until the next layout.
  return e < laid_out_ ? edge_cap_[e] - residual_[edge_arc_[e]] : 0;
}

Cap FlowNetwork::capacity(EdgeIdx e) const {
  OPASS_REQUIRE(e < edge_cap_.size(), "edge index out of range");
  return edge_cap_[e];
}

void FlowNetwork::reset_flow() {
  for (EdgeIdx e = 0; e < laid_out_; ++e) {
    const ArcIdx a = edge_arc_[e];
    residual_[a] = edge_cap_[e];
    residual_[partner_[a]] = 0;
  }
}

void FlowNetwork::finalize() {
  const auto edges = static_cast<EdgeIdx>(edge_cap_.size());
  // Rows keep the arcs laid out before (with their flows: the service tops a
  // solved network up with new edges) and gain the arcs of the edges added
  // since, which all come later in insertion order. Rows of nodes added
  // since start out empty.
  if (laid_out_ == 0) offsets_.clear();
  offsets_.resize(static_cast<std::size_t>(nodes_) + 1, laid_out_ * 2);
  // shift[u] (in cursor_) = new arcs in the rows before u: each new edge's
  // forward arc leaves its tail, its reverse arc its head.
  cursor_.assign(static_cast<std::size_t>(nodes_) + 1, 0);
  for (EdgeIdx e = laid_out_; e < edges; ++e) {
    ++cursor_[edge_tail_[e] + 1];
    ++cursor_[edge_head_[e] + 1];
  }
  for (NodeIdx u = 0; u < nodes_; ++u) cursor_[u + 1] += cursor_[u];
  // A network that grows after its layout (a top-up) is likely to grow
  // again: give its arcs the edge arrays' capacity, so the next top-up of a
  // warm workspace reallocates nothing.
  const std::size_t arcs = static_cast<std::size_t>(edges) * 2;
  if (laid_out_ > 0) {
    to_.reserve(edge_cap_.capacity() * 2);
    residual_.reserve(edge_cap_.capacity() * 2);
    partner_.reserve(edge_cap_.capacity() * 2);
    edge_arc_.reserve(edge_cap_.capacity());
  }
  to_.resize(arcs);
  residual_.resize(arcs);
  partner_.resize(arcs);
  edge_arc_.resize(edges);

  // Move the laid-out rows up by their shift, last row first so no arc is
  // overwritten before it moves. A partner lives in the row of the arc's
  // head, so it moves by that row's shift, even where the arc stays put.
  for (NodeIdx u = nodes_; laid_out_ > 0 && u-- > 0;) {
    for (ArcIdx a = offsets_[u + 1]; a-- > offsets_[u];) {
      const ArcIdx moved = a + cursor_[u];
      to_[moved] = to_[a];
      residual_[moved] = residual_[a];
      partner_[moved] = partner_[a] + cursor_[to_[a]];
    }
  }
  for (EdgeIdx e = 0; e < laid_out_; ++e) edge_arc_[e] += cursor_[edge_tail_[e]];

  // New row boundaries, and each row's first free position (cursor_).
  for (NodeIdx u = 0; u < nodes_; ++u) {
    offsets_[u] += cursor_[u];
    cursor_[u] += offsets_[u + 1];
  }
  offsets_[nodes_] += cursor_[nodes_];

  // Append the new edges' arcs in insertion order, forward before reverse,
  // which keeps every row in the order the solver paths depend on.
  for (EdgeIdx e = laid_out_; e < edges; ++e) {
    const NodeIdx u = edge_tail_[e];
    const NodeIdx v = edge_head_[e];
    const ArcIdx fwd = cursor_[u]++;
    const ArcIdx rev = cursor_[v]++;
    to_[fwd] = v;
    residual_[fwd] = edge_cap_[e];
    partner_[fwd] = rev;
    to_[rev] = u;
    residual_[rev] = 0;
    partner_[rev] = fwd;
    edge_arc_[e] = fwd;
  }
  laid_out_ = edges;
  finalized_ = true;
}

}  // namespace opass::graph
