// The Fig. 5 flow solve and the random fill of paper Section IV-B, shared by
// the flow-based planners.
//
//   s --(process cap)--> p_i --(task cap)--> f_j --(task cap)--> t
//
// with a p_i -> f_j edge for every locality pair the caller emits. The
// single-data, weighted, rack-aware and incremental planners all solve this
// one network; they differ in the capacities (task counts or bytes, full or
// remaining quota) and in the order their locality edges go in (task-major
// from replica lists, or process-major from a transposed index). Dinic's
// flows depend on that order, so each caller emits its own edges through a
// callback and keeps its plans byte for byte.
//
// The tasks the flow leaves unmatched go through the random fill: "we
// randomly assign unmatched tasks to each such process until all processes
// are matched to TotalSize/m of data".
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/max_flow.hpp"
#include "opass/process_index.hpp"
#include "runtime/static_partitioner.hpp"

namespace opass::core {

/// Owner of a task that no process holds.
inline constexpr std::uint32_t kNoOwner = UINT32_MAX;

/// Per-process quotas: n/m tasks each, the first n%m processes taking one
/// extra.
std::vector<std::uint32_t> equal_quotas(std::uint32_t task_count, std::uint32_t process_count);

/// Adds process -> task locality edges to the network solve_fig5() builds,
/// whose nodes are s = 0, t = 1, then the processes, then the tasks.
struct Fig5Edges {
  static constexpr graph::NodeIdx kFirstProcess = 2;

  graph::FlowNetwork::Builder& net;
  std::uint32_t process_count;
  std::uint32_t task_count;
  std::span<const graph::Cap> task_caps;  ///< empty: every task has capacity 1

  /// Add the edge `process` -> `task`, with the task's capacity.
  void operator()(std::uint32_t process, std::uint32_t task) const {
    OPASS_REQUIRE(process < process_count, "locality edge from process " +
                                               std::to_string(process) + " of " +
                                               std::to_string(process_count));
    OPASS_REQUIRE(task < task_count, "locality edge to task " + std::to_string(task) +
                                         " of " + std::to_string(task_count));
    const graph::NodeIdx first_task = kFirstProcess + process_count;
    net.add_edge(kFirstProcess + process, first_task + task, capacity(task));
  }

  graph::Cap capacity(std::uint32_t task) const {
    return task_caps.empty() ? 1 : task_caps[task];
  }
};

/// Build Fig. 5 over `task_count` tasks into `ws.network` — s -> p with
/// `process_caps[p]`, the locality edges `emit_edges` adds in its own order,
/// task -> t with the task's capacity — and solve it with Dinic: phase 0 as
/// the process-major greedy it is on this fresh network, then graph::max_flow
/// from that residual state, so the flows are Dinic's edge for edge. The
/// build calls `emit_edges` twice (FlowNetwork::build), and both calls must
/// add the same edges in the same order. A task's capacity is
/// `task_caps[task]` (bytes, for the weighted planner), or 1 when
/// `task_caps` is empty: the task units of equal-size chunks, which spare
/// the unit planners a per-task array. Returns each task's owner: the
/// process carrying most of its flow, the lowest one on ties, or kNoOwner
/// when the flow leaves the task unmatched.
std::vector<std::uint32_t> solve_fig5(graph::FlowWorkspace& ws,
                                      std::span<const graph::Cap> process_caps,
                                      std::uint32_t task_count,
                                      const std::function<void(const Fig5Edges&)>& emit_edges,
                                      std::span<const graph::Cap> task_caps = {});

/// The edges of `tasks_of` (row p: process p's tasks), process-major in row
/// order, for solve_fig5(). `tasks_of` must outlive the solve.
std::function<void(const Fig5Edges&)> process_major_edges(const Adjacency& tasks_of);

/// Section IV-B's random fill: shuffle the tasks `owner` leaves unowned,
/// then give each to a uniformly drawn process still below its quota
/// (counting the tasks `owner` already gives it). Returns the filled tasks
/// in fill order.
std::vector<std::uint32_t> random_fill(std::vector<std::uint32_t>& owner,
                                       const std::vector<std::uint32_t>& quotas, Rng& rng);

/// Per-process task lists, ascending, from an owner per task (none unowned).
runtime::Assignment group_by_owner(const std::vector<std::uint32_t>& owner,
                                   std::uint32_t process_count);

}  // namespace opass::core
