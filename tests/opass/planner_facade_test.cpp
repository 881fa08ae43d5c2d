// The core::plan() facade: the matched count is the oracle's max-flow,
// Algorithm 1 needs no rng, a warm lent workspace plans like a fresh one,
// and requests are validated strictly. Each planner's plans are pinned
// across commits by GoldenScenarios.Plan*
// (tests/integration/golden_scenarios_test.cpp).
#include <gtest/gtest.h>

#include "opass/opass.hpp"
#include "support/edmonds_karp.hpp"
#include "workload/dataset.hpp"
#include "workload/multi_input.hpp"

namespace opass::core {
namespace {

struct Layout {
  dfs::NameNode nn;
  std::vector<runtime::Task> tasks;
  ProcessPlacement placement;
};

Layout make_layout(std::uint64_t seed, bool multi_input = false) {
  Rng rng(seed);
  Layout layout{dfs::NameNode(dfs::Topology::uniform_racks(16, 2), 3), {}, {}};
  dfs::RandomPlacement policy;
  layout.tasks = multi_input
                     ? workload::make_multi_input_workload(layout.nn, 48, policy, rng)
                     : workload::make_single_data_workload(layout.nn, 80, policy, rng);
  layout.placement = one_process_per_node(layout.nn);
  return layout;
}

TEST(PlannerFacade, MultiDataNeedsNoRng) {
  const auto layout = make_layout(4, /*multi_input=*/true);
  // kMultiData is deterministic: no rng in the request, and lending one
  // changes nothing.
  Rng rng(9);
  PlanOptions options;
  options.planner = PlannerKind::kMultiData;
  const auto without = plan({&layout.nn, &layout.tasks, &layout.placement, nullptr}, options);
  const auto with = plan({&layout.nn, &layout.tasks, &layout.placement, &rng}, options);
  EXPECT_EQ(without.planner, PlannerKind::kMultiData);
  EXPECT_EQ(without.assignment, with.assignment);
  EXPECT_EQ(without.reassignments, with.reassignments);
  EXPECT_EQ(without.matched_bytes, with.matched_bytes);
}

TEST(PlannerFacade, MatchedCountIsTheOracleMaxFlow) {
  // Through the facade, the matched count equals the Edmonds–Karp oracle's
  // value on the network the planner built into the lent workspace.
  const auto layout = make_layout(5);
  Rng rng(9);
  graph::FlowWorkspace workspace;
  PlanOptions options;
  options.workspace = &workspace;
  const auto result = plan({&layout.nn, &layout.tasks, &layout.placement, &rng}, options);
  workspace.network.reset_flow();
  EXPECT_EQ(static_cast<graph::Cap>(result.locally_matched),
            oracle::edmonds_karp(workspace.network, 0, 1));
}

TEST(PlannerFacade, OneWarmWorkspaceServesEveryPlannerKind) {
  // A service or replanning loop lends one workspace to plan after plan, of
  // every kind and layout: the warm arenas must plan exactly as fresh ones.
  graph::FlowWorkspace warm;
  for (std::uint64_t seed : {7ull, 2ull, 11ull}) {
    for (const auto kind : {PlannerKind::kSingleData, PlannerKind::kWeighted,
                            PlannerKind::kRackAware, PlannerKind::kMultiData}) {
      const auto layout = make_layout(seed, kind == PlannerKind::kMultiData);
      PlanOptions options;
      options.planner = kind;
      options.workspace = &warm;
      Rng warm_rng(seed + 17);
      const auto with_warm =
          plan({&layout.nn, &layout.tasks, &layout.placement, &warm_rng}, options);
      graph::FlowWorkspace fresh;
      options.workspace = &fresh;
      Rng fresh_rng(seed + 17);
      const auto with_fresh =
          plan({&layout.nn, &layout.tasks, &layout.placement, &fresh_rng}, options);
      EXPECT_EQ(with_warm.assignment, with_fresh.assignment)
          << planner_kind_name(kind) << " seed " << seed;
      EXPECT_EQ(with_warm.locally_matched, with_fresh.locally_matched)
          << planner_kind_name(kind) << " seed " << seed;
    }
  }
}

TEST(PlannerFacade, RejectsIncompleteRequests) {
  const auto layout = make_layout(6);
  Rng rng(1);
  EXPECT_THROW(plan({nullptr, &layout.tasks, &layout.placement, &rng}),
               std::invalid_argument);
  EXPECT_THROW(plan({&layout.nn, nullptr, &layout.placement, &rng}), std::invalid_argument);
  EXPECT_THROW(plan({&layout.nn, &layout.tasks, nullptr, &rng}), std::invalid_argument);
  // Flow planners need the rng for their fill phase.
  EXPECT_THROW(plan({&layout.nn, &layout.tasks, &layout.placement, nullptr}),
               std::invalid_argument);
}

}  // namespace
}  // namespace opass::core
