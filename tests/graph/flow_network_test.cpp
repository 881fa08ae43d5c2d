#include "graph/flow_network.hpp"

#include <gtest/gtest.h>

namespace opass::graph {
namespace {

TEST(FlowNetwork, AddNodesReturnsFirstIndex) {
  FlowNetwork net;
  EXPECT_EQ(net.add_nodes(3), 0u);
  EXPECT_EQ(net.add_nodes(2), 3u);
  EXPECT_EQ(net.node_count(), 5u);
}

TEST(FlowNetwork, ConstructorPreallocatesNodes) {
  FlowNetwork net(4);
  EXPECT_EQ(net.node_count(), 4u);
}

TEST(FlowNetwork, AddEdgeStoresEndpointsAndCapacity) {
  FlowNetwork net(2);
  const EdgeIdx e = net.add_edge(0, 1, 7);
  EXPECT_EQ(net.edge_from(e), 0u);
  EXPECT_EQ(net.edge_to(e), 1u);
  EXPECT_EQ(net.capacity(e), 7);
  EXPECT_EQ(net.flow(e), 0);
  EXPECT_EQ(net.edge_count(), 1u);
}

TEST(FlowNetwork, RejectsBadEndpoints) {
  FlowNetwork net(2);
  EXPECT_THROW(net.add_edge(0, 5, 1), std::invalid_argument);
  EXPECT_THROW(net.add_edge(5, 0, 1), std::invalid_argument);
}

TEST(FlowNetwork, RejectsNegativeCapacity) {
  FlowNetwork net(2);
  EXPECT_THROW(net.add_edge(0, 1, -1), std::invalid_argument);
}

TEST(FlowNetwork, PushMovesResidualCapacity) {
  FlowNetwork net(2);
  const EdgeIdx e = net.add_edge(0, 1, 5);
  const ArcIdx fwd = net.forward_arc(e);
  net.push(fwd, 3);
  EXPECT_EQ(net.flow(e), 3);
  EXPECT_EQ(net.residual_capacity(fwd), 2);
  EXPECT_EQ(net.residual_capacity(net.partner(fwd)), 3);
}

TEST(FlowNetwork, PushBeyondCapacityThrows) {
  FlowNetwork net(2);
  const EdgeIdx e = net.add_edge(0, 1, 5);
  EXPECT_THROW(net.push(net.forward_arc(e), 6), std::logic_error);
}

TEST(FlowNetwork, ResetFlowRestoresCapacities) {
  FlowNetwork net(2);
  const EdgeIdx e = net.add_edge(0, 1, 5);
  net.push(net.forward_arc(e), 5);
  net.reset_flow();
  EXPECT_EQ(net.flow(e), 0);
  EXPECT_EQ(net.residual_capacity(net.forward_arc(e)), 5);
}

TEST(FlowNetwork, PartnersPairTheTwoArcsOfAnEdge) {
  FlowNetwork net(3);
  const EdgeIdx a = net.add_edge(0, 1, 4);
  const EdgeIdx b = net.add_edge(2, 0, 6);
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
  FlowNetwork net(2);
  net.add_edge(0, 1, 1);
  EXPECT_EQ(net.residual_adjacency(0).size(), 1u);
  EXPECT_EQ(net.residual_adjacency(1).size(), 1u);  // the residual reverse
}

TEST(FlowNetwork, AdjacencyPreservesInsertionOrder) {
  // The CSR layout must keep each node's arcs in insertion order, an edge's
  // forward arc before its reverse, so solver traversals stay deterministic.
  FlowNetwork net(4);
  const EdgeIdx a = net.add_edge(0, 1, 1);
  const EdgeIdx b = net.add_edge(2, 0, 1);
  const EdgeIdx c = net.add_edge(0, 3, 1);
  const EdgeIdx loop = net.add_edge(0, 0, 1);
  const auto adj = net.residual_adjacency(0);
  ASSERT_EQ(adj.size(), 5u);
  EXPECT_EQ(adj[0], net.forward_arc(a));
  EXPECT_EQ(adj[1], net.partner(net.forward_arc(b)));
  EXPECT_EQ(adj[2], net.forward_arc(c));
  EXPECT_EQ(adj[3], net.forward_arc(loop));
  EXPECT_EQ(adj[4], net.partner(net.forward_arc(loop)));
}

TEST(FlowNetwork, AddEdgeAfterAdjacencyReadRebuildsCsr) {
  // Reading adjacency finalizes the CSR; a later add_edge must invalidate
  // and rebuild it.
  FlowNetwork net(3);
  net.add_edge(0, 1, 1);
  EXPECT_EQ(net.residual_adjacency(0).size(), 1u);
  net.add_edge(0, 2, 1);
  EXPECT_EQ(net.residual_adjacency(0).size(), 2u);
  EXPECT_EQ(net.residual_adjacency(2).size(), 1u);
}

TEST(FlowNetwork, AddEdgeAfterPushKeepsRoutedFlow) {
  // The planning service tops a solved network up with new edges and solves
  // again; the re-layout must carry every routed flow over.
  FlowNetwork net(3);
  const EdgeIdx a = net.add_edge(0, 1, 5);
  const EdgeIdx b = net.add_edge(1, 2, 4);
  net.push(net.forward_arc(a), 3);
  net.push(net.forward_arc(b), 3);
  const EdgeIdx c = net.add_edge(0, 1, 2);
  EXPECT_EQ(net.flow(a), 3);  // before the re-layout
  EXPECT_EQ(net.flow(c), 0);
  EXPECT_EQ(net.residual_capacity(net.forward_arc(a)), 2);  // after it
  EXPECT_EQ(net.flow(a), 3);
  EXPECT_EQ(net.flow(b), 3);
  EXPECT_EQ(net.flow(c), 0);
  for (EdgeIdx e : {a, b, c}) {
    const ArcIdx fwd = net.forward_arc(e);
    EXPECT_EQ(net.partner(net.partner(fwd)), fwd) << "edge " << e;
    EXPECT_EQ(net.residual_to(net.partner(fwd)), net.edge_from(e)) << "edge " << e;
    EXPECT_EQ(net.residual_capacity(net.partner(fwd)), net.flow(e)) << "edge " << e;
  }
  net.reset_flow();
  EXPECT_EQ(net.flow(a), 0);
  EXPECT_EQ(net.residual_capacity(net.forward_arc(b)), 4);
}

TEST(FlowNetwork, ClearResetsStateAndAllowsReuse) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 5);
  net.add_edge(1, 2, 5);
  EXPECT_EQ(net.residual_adjacency(1).size(), 2u);

  net.clear(2);
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.edge_count(), 0u);
  EXPECT_EQ(net.residual_adjacency(0).size(), 0u);

  const EdgeIdx e = net.add_edge(0, 1, 3);
  EXPECT_EQ(net.capacity(e), 3);
  EXPECT_EQ(net.flow(e), 0);
  EXPECT_EQ(net.residual_adjacency(0).size(), 1u);
  EXPECT_THROW(net.add_edge(0, 3, 1), std::invalid_argument);  // old nodes gone
}

}  // namespace
}  // namespace opass::graph
