// Residual flow network used by the Opass single-data assigner (the network of
// paper Fig. 5) and by the max-flow solver in max_flow.hpp.
//
// The network is its arcs, in CSR (compressed sparse row) order: row u holds
// the arcs leaving u, with each arc's head, its residual capacity and its
// partner's position side by side in three flat arrays, so a traversal reads
// a node's arcs sequentially. build() is the one way to fill a network. It
// runs the caller's edge emitter twice: the first run counts each node's
// arcs, the second writes each edge's forward and reverse arc straight into
// rows of exactly that size. Each row keeps insertion order (the forward arc
// of an edge before its reverse), so solver paths are deterministic. Edge ids
// stay dense in insertion order; an edge reaches its arcs through
// forward_arc(), and its endpoints, flow and capacity are read off them, so
// no copy of the edge list is kept. A solved network changes only through
// add_capacity(), which raises an edge in place: the planning service builds
// its fair-share top-ups at zero capacity and raises them before it
// re-solves. There is no per-node std::vector, and a rebuild keeps every
// array's capacity, so repeated planning runs (dynamic/incremental
// replanning) allocate nothing in steady state. Capacities are 64-bit so
// byte-granularity networks (capacities up to the dataset size) are exact.
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
  /// What build() hands its emitter: the one way to add an edge.
  class Builder {
   public:
    /// Add a directed edge u -> v with the given capacity (>= 0). Returns its
    /// edge id (use with flow()/capacity()): the count of edges added before.
    EdgeIdx add_edge(NodeIdx u, NodeIdx v, Cap capacity);

    Builder(const Builder&) = delete;
    Builder& operator=(const Builder&) = delete;

   private:
    friend class FlowNetwork;
    Builder(FlowNetwork& net, bool fill) : net_(net), fill_(fill) {}

    FlowNetwork& net_;
    bool fill_;          ///< false: count each row's arcs; true: write them
    EdgeIdx edges_ = 0;  ///< edges added so far
  };

  /// Replace the network with `node_count` nodes and the edges that
  /// `emit(Builder&)` adds. `emit` runs twice and must add the same edges in
  /// the same order both times: the first run checks each edge and counts
  /// its node's arcs, the second writes the arcs. A rebuild keeps every
  /// array's capacity. If `emit` throws, or its second run adds a different
  /// number of edges or fills a row differently, the network is left empty
  /// and the exception propagates.
  template <typename Emit>
  void build(NodeIdx node_count, Emit&& emit) {
    try {
      Builder count(*this, false);
      start_count(node_count);
      emit(count);
      Builder fill(*this, true);
      start_fill(count.edges_);
      emit(fill);
      OPASS_CHECK(fill.edges_ == count.edges_,
                  "the emitter's second run added a different number of edges");
    } catch (...) {
      clear();
      throw;
    }
  }

  NodeIdx node_count() const { return nodes_; }

  /// Number of edges the last build added.
  std::size_t edge_count() const { return edge_arc_.size(); }

  /// Raise edge e's capacity by `extra` (>= 0). The flow already routed
  /// through it, and through every other edge, is kept.
  void add_capacity(EdgeIdx e, Cap extra);

  /// Flow currently routed through edge e: its reverse arc's residual.
  Cap flow(EdgeIdx e) const { return residual_[partner_[forward_arc(e)]]; }

  /// Capacity of edge e: the sum of its two arcs' residuals.
  Cap capacity(EdgeIdx e) const {
    const ArcIdx a = forward_arc(e);
    return residual_[a] + residual_[partner_[a]];
  }

  /// Endpoints of edge e.
  NodeIdx edge_from(EdgeIdx e) const { return to_[partner_[forward_arc(e)]]; }
  NodeIdx edge_to(EdgeIdx e) const { return to_[forward_arc(e)]; }

  /// Reset all flows to zero (capacities preserved).
  void reset_flow();

  // --- residual-graph accessors used by the algorithms ---

  /// The arc positions leaving one node, consecutive and in insertion order.
  using ArcRange = std::ranges::iota_view<ArcIdx, ArcIdx>;

  /// Arcs (forward edges and residual reverses) leaving u.
  ArcRange residual_adjacency(NodeIdx u) const {
    OPASS_REQUIRE(u < nodes_, "node index out of range");
    return ArcRange(offsets_[u], offsets_[u + 1]);
  }

  /// Position of edge e's forward arc (its reverse is partner() of it).
  ArcIdx forward_arc(EdgeIdx e) const {
    OPASS_REQUIRE(e < edge_arc_.size(), "edge index out of range");
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
  /// Empty the network, keeping the arrays' capacity.
  void clear();
  /// Before the counting run: `node_count` rows, each with no arcs yet.
  void start_count(NodeIdx node_count);
  /// Before the writing run: turn the counts into row boundaries and size
  /// the arc arrays for `edges` edges.
  void start_fill(EdgeIdx edges);
  /// The next free position in row u, which the counting run sized.
  ArcIdx take_arc(NodeIdx u);

  NodeIdx nodes_ = 0;
  // Arcs, in CSR order: row u is [offsets_[u], offsets_[u + 1]).
  std::vector<NodeIdx> to_;
  std::vector<Cap> residual_;
  std::vector<ArcIdx> partner_;
  std::vector<ArcIdx> edge_arc_;        ///< forward arc of each edge
  std::vector<std::uint32_t> offsets_;  ///< nodes_ + 1 row boundaries
  std::vector<std::uint32_t> cursor_;   ///< each row's next free position, while building
};

}  // namespace opass::graph
