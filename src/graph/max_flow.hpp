// Max-flow solver: Dinic (level graph + iterative blocking flow with the
// current-arc optimization).
//
// The paper solves the Fig. 5 network with Ford–Fulkerson. Opass reads only
// the max-flow value (the count of locally matched tasks) and the integral
// edge flows of one maximum flow, so any maximum-flow solver serves; Dinic
// finishes the planner's shallow unit networks in a handful of phases. It
// operates on FlowNetwork in place, starting from whatever flow the network
// already carries and leaving the final flow readable via
// FlowNetwork::flow(edge). Each level-graph BFS stops as soon as it labels
// t: every node on a shorter level is labelled by then, and no node at t's
// level or beyond lies on a shortest augmenting path, so the blocking flow
// augments the same paths and only skips dead ends. The tests keep an
// independent BFS augmenting-path solver and the full-BFS Dinic this one
// must match edge for edge (tests/support/) as oracles.
//
// A caller may raise capacities with FlowNetwork::add_capacity() between
// solves and solve again (the planning service's fair-share top-up). Both the
// BFS and the DFS skip an arc at zero residual, so a zero-capacity edge that
// waits to be raised changes no path of the solves before it.
//
// FlowWorkspace bundles a reusable network arena with the solver's scratch
// arrays. Planners that replan repeatedly (dynamic batches, incremental
// updates) thread one workspace through every run so steady-state planning
// performs zero allocation: FlowNetwork::build() writes the next network into
// the retained arenas, and the solve reuses the retained scratch.
#pragma once

#include <vector>

#include "graph/flow_network.hpp"

namespace opass::graph {

/// Reusable solver state: the network arena plus the per-run scratch arrays.
/// Everything is sized on demand and keeps its capacity across runs.
struct FlowWorkspace {
  FlowNetwork network;            ///< rebuilt with FlowNetwork::build() per plan

  // Solver scratch (contents are meaningless between runs).
  std::vector<std::int32_t> level;  ///< BFS level per node; -1 = unreached
  std::vector<std::uint32_t> arc;   ///< current-arc cursor per node
  std::vector<NodeIdx> queue;       ///< BFS frontier
  std::vector<ArcIdx> path;         ///< DFS path of arcs
};

/// Solve `workspace.network` from s to t in place, reusing the workspace's
/// scratch arrays (no allocation once warm). Returns the flow added to what
/// the network already carried: the max-flow value on a fresh network.
Cap max_flow(FlowWorkspace& workspace, NodeIdx s, NodeIdx t);

}  // namespace opass::graph
