// Edmonds–Karp (BFS Ford–Fulkerson, the paper's solver for the Fig. 5
// network) as an independent max-flow oracle for the tests. The library
// solves with Dinic only; parity suites re-solve the planner's own network
// with this oracle after FlowNetwork::reset_flow() and require the same
// max-flow value.
#pragma once

#include "graph/flow_network.hpp"

namespace opass::oracle {

/// Solve `net` from s to t in place by shortest augmenting paths; returns
/// the max-flow value. Throws std::invalid_argument on bad terminals.
graph::Cap edmonds_karp(graph::FlowNetwork& net, graph::NodeIdx s, graph::NodeIdx t);

}  // namespace opass::oracle
