// Max-flow solver: Dinic (level graph + iterative blocking flow with the
// current-arc optimization).
//
// The paper solves the Fig. 5 network with Ford–Fulkerson. Opass reads only
// the max-flow value (the count of locally matched tasks) and the integral
// edge flows of one maximum flow, so any maximum-flow solver serves; Dinic
// finishes the planner's shallow unit networks in a handful of phases. It
// operates on FlowNetwork in place, leaving the final flow readable via
// FlowNetwork::flow(edge). An independent BFS augmenting-path solver lives
// with the tests (tests/support/) as the parity oracle.
//
// FlowWorkspace bundles a reusable network arena with the solver's scratch
// arrays. Planners that replan repeatedly (dynamic batches, incremental
// updates) thread one workspace through every run so steady-state planning
// performs zero allocation: clear() the network, rebuild the edges into the
// retained arenas, solve with the retained scratch.
#pragma once

#include <vector>

#include "graph/flow_network.hpp"

namespace opass::graph {

/// Reusable solver state: the network arena plus the per-run scratch arrays.
/// Everything is sized on demand and keeps its capacity across runs.
struct FlowWorkspace {
  FlowNetwork network;            ///< build target; clear() it per plan

  // Solver scratch (contents are meaningless between runs).
  std::vector<std::int32_t> level;  ///< BFS level per node; -1 = unreached
  std::vector<std::uint32_t> arc;   ///< current-arc cursor per node
  std::vector<NodeIdx> queue;       ///< BFS frontier
  std::vector<EdgeIdx> path;        ///< DFS path of half-edges
};

/// Run Dinic from s to t on a standalone network; returns the max-flow value.
Cap dinic(FlowNetwork& net, NodeIdx s, NodeIdx t);

/// Workspace form: solve `workspace.network` in place, reusing the
/// workspace's scratch arrays (no allocation once warm).
Cap max_flow(FlowWorkspace& workspace, NodeIdx s, NodeIdx t);

}  // namespace opass::graph
