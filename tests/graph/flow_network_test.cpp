#include "graph/flow_network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace opass::graph {
namespace {

using Builder = FlowNetwork::Builder;

TEST(FlowNetwork, AddEdgeStoresEndpointsAndCapacity) {
  FlowNetwork net;
  EdgeIdx e = 0;
  net.build(2, [&](Builder& edges) { e = edges.add_edge(0, 1, 7); });
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.edge_from(e), 0u);
  EXPECT_EQ(net.edge_to(e), 1u);
  EXPECT_EQ(net.capacity(e), 7);
  EXPECT_EQ(net.flow(e), 0);
  EXPECT_EQ(net.edge_count(), 1u);
}

TEST(FlowNetwork, RejectsBadEndpoints) {
  FlowNetwork net;
  EXPECT_THROW(net.build(2, [](Builder& edges) { edges.add_edge(0, 5, 1); }),
               std::invalid_argument);
  EXPECT_THROW(net.build(2, [](Builder& edges) { edges.add_edge(5, 0, 1); }),
               std::invalid_argument);
  EXPECT_EQ(net.node_count(), 0u);  // a throw leaves an empty network
}

TEST(FlowNetwork, RejectsNegativeCapacity) {
  FlowNetwork net;
  EXPECT_THROW(net.build(2, [](Builder& edges) { edges.add_edge(0, 1, -1); }),
               std::invalid_argument);
}

TEST(FlowNetwork, PushMovesResidualCapacity) {
  FlowNetwork net;
  EdgeIdx e = 0;
  net.build(2, [&](Builder& edges) { e = edges.add_edge(0, 1, 5); });
  const ArcIdx fwd = net.forward_arc(e);
  net.push(fwd, 3);
  EXPECT_EQ(net.flow(e), 3);
  EXPECT_EQ(net.capacity(e), 5);
  EXPECT_EQ(net.residual_capacity(fwd), 2);
  EXPECT_EQ(net.residual_capacity(net.partner(fwd)), 3);
}

TEST(FlowNetwork, PushBeyondCapacityThrows) {
  FlowNetwork net;
  EdgeIdx e = 0;
  net.build(2, [&](Builder& edges) { e = edges.add_edge(0, 1, 5); });
  EXPECT_THROW(net.push(net.forward_arc(e), 6), std::logic_error);
}

TEST(FlowNetwork, ResetFlowRestoresCapacities) {
  FlowNetwork net;
  EdgeIdx e = 0;
  net.build(2, [&](Builder& edges) { e = edges.add_edge(0, 1, 5); });
  net.push(net.forward_arc(e), 5);
  net.reset_flow();
  EXPECT_EQ(net.flow(e), 0);
  EXPECT_EQ(net.residual_capacity(net.forward_arc(e)), 5);
}

TEST(FlowNetwork, PartnersPairTheTwoArcsOfAnEdge) {
  FlowNetwork net;
  EdgeIdx a = 0;
  EdgeIdx b = 0;
  net.build(3, [&](Builder& edges) {
    a = edges.add_edge(0, 1, 4);
    b = edges.add_edge(2, 0, 6);
  });
  for (EdgeIdx e : {a, b}) {
    const ArcIdx fwd = net.forward_arc(e);
    EXPECT_EQ(net.partner(net.partner(fwd)), fwd);
    EXPECT_EQ(net.residual_to(fwd), net.edge_to(e));
    EXPECT_EQ(net.residual_to(net.partner(fwd)), net.edge_from(e));
    EXPECT_EQ(net.residual_capacity(fwd), net.capacity(e));
    EXPECT_EQ(net.residual_capacity(net.partner(fwd)), 0);
  }
}

TEST(FlowNetwork, AdjacencyContainsBothDirections) {
  FlowNetwork net;
  net.build(2, [](Builder& edges) { edges.add_edge(0, 1, 1); });
  EXPECT_EQ(net.residual_adjacency(0).size(), 1u);
  EXPECT_EQ(net.residual_adjacency(1).size(), 1u);  // the residual reverse
}

TEST(FlowNetwork, AdjacencyPreservesInsertionOrder) {
  // The CSR layout must keep each node's arcs in insertion order, an edge's
  // forward arc before its reverse, so solver traversals stay deterministic.
  FlowNetwork net;
  EdgeIdx a = 0;
  EdgeIdx b = 0;
  EdgeIdx c = 0;
  EdgeIdx loop = 0;
  net.build(4, [&](Builder& edges) {
    a = edges.add_edge(0, 1, 1);
    b = edges.add_edge(2, 0, 1);
    c = edges.add_edge(0, 3, 1);
    loop = edges.add_edge(0, 0, 1);
  });
  const auto adj = net.residual_adjacency(0);
  ASSERT_EQ(adj.size(), 5u);
  EXPECT_EQ(adj[0], net.forward_arc(a));
  EXPECT_EQ(adj[1], net.partner(net.forward_arc(b)));
  EXPECT_EQ(adj[2], net.forward_arc(c));
  EXPECT_EQ(adj[3], net.forward_arc(loop));
  EXPECT_EQ(adj[4], net.partner(net.forward_arc(loop)));
  EXPECT_EQ(net.edge_from(loop), 0u);
  EXPECT_EQ(net.edge_to(loop), 0u);
}

TEST(FlowNetwork, AddCapacityKeepsRoutedFlow) {
  // The planning service builds its top-up edge at zero capacity, solves,
  // raises the edge and solves again from the flow the first solve left.
  FlowNetwork net;
  EdgeIdx a = 0;
  EdgeIdx b = 0;
  EdgeIdx c = 0;
  net.build(3, [&](Builder& edges) {
    a = edges.add_edge(0, 1, 5);
    b = edges.add_edge(1, 2, 4);
    c = edges.add_edge(0, 1, 0);
  });
  net.push(net.forward_arc(a), 3);
  net.push(net.forward_arc(b), 3);
  EXPECT_EQ(net.residual_capacity(net.forward_arc(c)), 0);
  net.add_capacity(c, 2);
  EXPECT_EQ(net.capacity(c), 2);
  EXPECT_EQ(net.flow(c), 0);
  EXPECT_EQ(net.flow(a), 3);
  EXPECT_EQ(net.flow(b), 3);
  EXPECT_EQ(net.residual_capacity(net.forward_arc(a)), 2);
  net.push(net.forward_arc(c), 1);  // a path through the raised edge
  net.push(net.forward_arc(b), 1);
  for (EdgeIdx e : {a, b, c}) {
    const ArcIdx fwd = net.forward_arc(e);
    EXPECT_EQ(net.partner(net.partner(fwd)), fwd) << "edge " << e;
    EXPECT_EQ(net.residual_to(net.partner(fwd)), net.edge_from(e)) << "edge " << e;
    EXPECT_EQ(net.residual_capacity(net.partner(fwd)), net.flow(e)) << "edge " << e;
    EXPECT_EQ(net.residual_capacity(fwd), net.capacity(e) - net.flow(e)) << "edge " << e;
  }
  EXPECT_EQ(net.flow(c), 1);
  EXPECT_EQ(net.flow(b), 4);
  EXPECT_THROW(net.add_capacity(c, -1), std::invalid_argument);
  EXPECT_THROW(net.add_capacity(3, 1), std::invalid_argument);
  net.reset_flow();
  EXPECT_EQ(net.flow(a), 0);
  EXPECT_EQ(net.flow(c), 0);
  EXPECT_EQ(net.capacity(c), 2);  // the raise outlives the reset
  EXPECT_EQ(net.residual_capacity(net.forward_arc(b)), 4);
}

/// The message of the std::logic_error `build` throws, or "" if none.
template <typename Fn>
std::string logic_error_of(Fn&& build) {
  try {
    build();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(FlowNetwork, BuildRejectsASecondPassThatDiffers) {
  // build() runs its emitter twice, and the second run must add the edges
  // the first one counted. One that differs leaves an empty network.
  FlowNetwork net;
  int run = 0;
  const auto extra_edge = [&](Builder& edges) {
    edges.add_edge(0, 1, 1);
    if (++run == 2) edges.add_edge(1, 2, 1);
  };
  EXPECT_NE(logic_error_of([&] { net.build(3, extra_edge); }).find("more edges"),
            std::string::npos);
  EXPECT_EQ(net.node_count(), 0u);
  EXPECT_EQ(net.edge_count(), 0u);

  run = 0;
  const auto missing_edge = [&](Builder& edges) {
    edges.add_edge(0, 1, 1);
    if (++run == 1) edges.add_edge(1, 2, 1);
  };
  EXPECT_NE(
      logic_error_of([&] { net.build(3, missing_edge); }).find("different number of edges"),
      std::string::npos);
  EXPECT_EQ(net.edge_count(), 0u);

  // The same edge count, with the second run's edge in another row.
  run = 0;
  const auto moved_edge = [&](Builder& edges) { edges.add_edge(0, ++run == 1 ? 1 : 2, 1); };
  EXPECT_NE(logic_error_of([&] { net.build(3, moved_edge); }).find("filled a row differently"),
            std::string::npos);
  EXPECT_EQ(net.node_count(), 0u);
  EXPECT_EQ(net.edge_count(), 0u);

  net.build(3, [](Builder& edges) { edges.add_edge(0, 2, 1); });
  EXPECT_EQ(net.edge_count(), 1u);
  EXPECT_EQ(net.edge_to(0), 2u);
  EXPECT_EQ(net.residual_adjacency(1).size(), 0u);
}

TEST(FlowNetwork, RebuildResetsStateAndAllowsReuse) {
  FlowNetwork net;
  net.build(4, [](Builder& edges) {
    edges.add_edge(0, 1, 5);
    edges.add_edge(1, 2, 5);
  });
  EXPECT_EQ(net.residual_adjacency(1).size(), 2u);
  net.push(net.forward_arc(0), 5);

  EdgeIdx e = 0;
  net.build(2, [&](Builder& edges) { e = edges.add_edge(0, 1, 3); });
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.edge_count(), 1u);
  EXPECT_EQ(net.capacity(e), 3);
  EXPECT_EQ(net.flow(e), 0);
  EXPECT_EQ(net.residual_adjacency(0).size(), 1u);
  EXPECT_THROW(net.residual_adjacency(3), std::invalid_argument);  // old nodes gone

  net.build(2, [](Builder&) {});
  EXPECT_EQ(net.edge_count(), 0u);
  EXPECT_EQ(net.residual_adjacency(0).size(), 0u);
}

}  // namespace
}  // namespace opass::graph
