// Residual flow network used by the Opass single-data assigner (the network of
// paper Fig. 5) and by the max-flow solver in max_flow.hpp.
//
// Storage is two sets of flat arrays. The build keeps one (tail, head,
// capacity) entry per edge, in insertion order. The first residual query
// turns them into arcs in CSR (compressed sparse row) order: a counting sort
// by origin writes each edge's forward and reverse arc at its position in its
// origin's row, with the arc's head, its residual capacity and its partner's
// position side by side. A traversal therefore reads a node's arcs
// sequentially, and each node's arcs keep insertion order (the forward arc of
// an edge before its reverse), so solver paths are deterministic. Edge ids
// stay dense in insertion order; an edge reaches its arcs through
// forward_arc(). There is no per-node std::vector: clear() resets the network
// to empty while keeping every array's capacity, so repeated planning runs
// (dynamic/incremental replanning) allocate nothing in steady state.
// Capacities are 64-bit so byte-granularity networks (capacities up to the
// dataset size) are exact.
#pragma once

#include <cstdint>
#include <ranges>
#include <vector>

#include "common/require.hpp"

namespace opass::graph {

using NodeIdx = std::uint32_t;
using EdgeIdx = std::uint32_t;  ///< dense edge id, in insertion order
using ArcIdx = std::uint32_t;   ///< arc position, in CSR order
using Cap = std::int64_t;

/// Directed flow network with residual arcs.
class FlowNetwork {
 public:
  explicit FlowNetwork(NodeIdx node_count = 0) : nodes_(node_count) {}

  /// Reset to an empty `node_count`-node network, keeping the arrays'
  /// capacity so a reused network reaches zero steady-state allocation.
  void clear(NodeIdx node_count = 0);

  /// Add `count` fresh nodes, returning the index of the first.
  NodeIdx add_nodes(NodeIdx count = 1);

  NodeIdx node_count() const { return nodes_; }

  /// Number of edges added via add_edge.
  std::size_t edge_count() const { return edge_cap_.size(); }

  /// Add a directed edge u -> v with the given capacity (>= 0). Returns its
  /// edge id (use with flow()/capacity()). Flows already routed through
  /// earlier edges are kept.
  EdgeIdx add_edge(NodeIdx u, NodeIdx v, Cap capacity);

  /// Flow currently routed through edge e (set by a max-flow run).
  Cap flow(EdgeIdx e) const;

  /// Original capacity of edge e.
  Cap capacity(EdgeIdx e) const;

  /// Endpoints of edge e.
  NodeIdx edge_from(EdgeIdx e) const { return edge_tail_[e]; }
  NodeIdx edge_to(EdgeIdx e) const { return edge_head_[e]; }

  /// Reset all flows to zero (capacities preserved).
  void reset_flow();

  // --- residual-graph accessors used by the algorithms ---

  /// The arc positions leaving one node, consecutive and in insertion order.
  using ArcRange = std::ranges::iota_view<ArcIdx, ArcIdx>;

  /// Arcs (forward edges and residual reverses) leaving u. Lays the arcs out
  /// if edges or nodes were added since the last query.
  ArcRange residual_adjacency(NodeIdx u) {
    OPASS_REQUIRE(u < nodes_, "node index out of range");
    if (!finalized_) finalize();
    return ArcRange(offsets_[u], offsets_[u + 1]);
  }

  /// Position of edge e's forward arc (its reverse is partner() of it).
  ArcIdx forward_arc(EdgeIdx e) {
    OPASS_REQUIRE(e < edge_cap_.size(), "edge index out of range");
    if (!finalized_) finalize();
    return edge_arc_[e];
  }

  NodeIdx residual_to(ArcIdx a) const { return to_[a]; }
  Cap residual_capacity(ArcIdx a) const { return residual_[a]; }
  /// The arc in the opposite direction of the same edge.
  ArcIdx partner(ArcIdx a) const { return partner_[a]; }

  /// Route `amount` more flow through arc a (at most its residual capacity).
  void push(ArcIdx a, Cap amount) {
    OPASS_CHECK(a < residual_.size(), "arc out of range");
    OPASS_CHECK(residual_[a] >= amount, "pushing more flow than residual capacity");
    residual_[a] -= amount;
    residual_[partner_[a]] += amount;
  }

 private:
  /// Lay the edges added since the last layout out as arcs in CSR order
  /// (counting sort by origin), moving the arcs laid out before, with their
  /// flows, to make room.
  void finalize();

  NodeIdx nodes_ = 0;
  // Edges, in insertion order.
  std::vector<NodeIdx> edge_tail_;
  std::vector<NodeIdx> edge_head_;
  std::vector<Cap> edge_cap_;
  // Arcs, in CSR order: row u is [offsets_[u], offsets_[u + 1]).
  std::vector<NodeIdx> to_;
  std::vector<Cap> residual_;
  std::vector<ArcIdx> partner_;
  std::vector<ArcIdx> edge_arc_;        ///< forward arc of each laid-out edge
  std::vector<std::uint32_t> offsets_;  ///< nodes_ + 1 row boundaries
  std::vector<std::uint32_t> cursor_;   ///< counting-sort scratch
  EdgeIdx laid_out_ = 0;                ///< edges the arcs hold
  bool finalized_ = false;
};

}  // namespace opass::graph
