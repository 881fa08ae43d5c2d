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

namespace opass {
class ThreadPool;
}

namespace opass::graph {

/// Reusable solver state: the network arena plus the per-run scratch arrays.
/// Everything is sized on demand and keeps its capacity across runs.
struct FlowWorkspace {
  FlowNetwork network;            ///< build target; clear() it per plan

  /// Opt-in worker pool (borrowed, may be nullptr): when set with more than
  /// one lane, Dinic runs its blocking flows concurrently across the
  /// connected components of the network minus {s, t} — the per-source-file
  /// subflows the Fig. 5 network decomposes into — and falls back to the
  /// serial solver when the network doesn't decompose. Edge flows are
  /// byte-identical to the serial run (see run_dinic_parallel in
  /// max_flow.cpp for the proof sketch).
  ThreadPool* pool = nullptr;

  // Solver scratch (contents are meaningless between runs).
  std::vector<std::int32_t> level;  ///< BFS level per node; -1 = unreached
  std::vector<std::uint32_t> arc;   ///< current-arc cursor per node
  std::vector<NodeIdx> queue;       ///< BFS frontier
  std::vector<EdgeIdx> path;        ///< DFS path of half-edges

  // Parallel-Dinic scratch (sized on demand, capacity retained).
  std::vector<std::uint32_t> comp;         ///< component id per node
  std::vector<EdgeIdx> comp_s_arcs;        ///< s's half-edges grouped by component (CSR)
  std::vector<std::uint32_t> comp_s_offsets;  ///< comp_count + 1 bucket bounds
  std::vector<std::uint32_t> comp_s_cursor;   ///< per-component arc[s] cursor
  std::vector<Cap> comp_total;             ///< per-component blocking-flow value
  std::vector<std::vector<EdgeIdx>> comp_paths;  ///< per-chunk DFS stacks
};

/// Run Dinic from s to t on a standalone network; returns the max-flow value.
Cap dinic(FlowNetwork& net, NodeIdx s, NodeIdx t);

/// Workspace form: solve `workspace.network` in place, reusing the
/// workspace's scratch arrays (no allocation once warm). Runs the pooled
/// per-component Dinic when `workspace.pool` has more than one lane, the
/// serial one otherwise; edge flows are identical either way.
Cap max_flow(FlowWorkspace& workspace, NodeIdx s, NodeIdx t);

}  // namespace opass::graph
