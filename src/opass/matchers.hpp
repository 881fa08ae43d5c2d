// The four matchers behind core::plan() (opass/planner.hpp).
//
// Internal to src/opass/: everything else plans through the facade, and
// opass/opass.hpp does not include this header. Each matcher fills
// PlanResult::assignment and its own counters; plan() adds the planner
// kind, the AssignmentStats profile and the two wall timings. The flow
// matchers build their networks into `workspace` when one is given, so
// repeated planning reuses its arenas.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "graph/max_flow.hpp"
#include "opass/planner.hpp"
#include "opass/process_index.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// Fig. 5 with unit capacities, then the random fill (single_data.cpp).
/// Sets locally_matched and randomly_filled.
PlanResult assign_single_data(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                              const ProcessPlacement& placement, Rng& rng,
                              graph::FlowWorkspace* workspace);

/// Fig. 5 with byte capacities, then the balance fill
/// (weighted_single_data.cpp). Sets locally_matched (tasks placed by the
/// flow), randomly_filled (tasks placed by the fill) and matched_bytes.
PlanResult assign_single_data_weighted(const dfs::NameNode& nn,
                                       const std::vector<runtime::Task>& tasks,
                                       const ProcessPlacement& placement, Rng& rng,
                                       graph::FlowWorkspace* workspace);

/// Node-local flow, rack-local flow, then the random fill (rack_aware.cpp).
/// Sets locally_matched (node-local), rack_local and randomly_filled.
PlanResult assign_single_data_rack_aware(const dfs::NameNode& nn,
                                         const std::vector<runtime::Task>& tasks,
                                         const ProcessPlacement& placement, Rng& rng,
                                         graph::FlowWorkspace* workspace);

/// Algorithm 1 (multi_data.cpp). Sets reassignments and matched_bytes.
PlanResult assign_multi_data(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                             const ProcessPlacement& placement);

}  // namespace opass::core
