// The library's Dinic as it was before its speedups (a full BFS per phase,
// and no phase-0 greedy in the Fig. 5 solve), kept as a test-only reference.
// graph::max_flow and core::solve_fig5 must find its flows edge for edge:
// the speedups skip work whose outcome is fixed, never change which
// augmenting paths are taken or in what order. Like graph::max_flow it
// starts from the flow the network already carries.
#pragma once

#include "graph/flow_network.hpp"

namespace opass::oracle {

/// Solve `net` from s to t in place with the reference Dinic; returns the
/// flow added. Throws std::invalid_argument on bad terminals.
graph::Cap reference_dinic(graph::FlowNetwork& net, graph::NodeIdx s, graph::NodeIdx t);

}  // namespace opass::oracle
