// The core::plan() facade must be a pure repackaging of the per-planner free
// functions: same assignments for the same inputs and seeds, uniform stats,
// and strict request validation. Also covers the planner-name round trip and
// the dynamic-source construction (both steal policies).
#include <gtest/gtest.h>

#include <string>

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

TEST(PlannerFacade, SingleDataMatchesLegacyFunction) {
  const auto layout = make_layout(1);
  Rng rng_facade(9), rng_legacy(9);
  const auto facade = plan({&layout.nn, &layout.tasks, &layout.placement, &rng_facade});
  const auto legacy =
      assign_single_data(layout.nn, layout.tasks, layout.placement, rng_legacy);

  EXPECT_EQ(facade.planner, PlannerKind::kSingleData);
  EXPECT_EQ(facade.assignment, legacy.assignment);
  EXPECT_EQ(facade.locally_matched, legacy.locally_matched);
  EXPECT_EQ(facade.randomly_filled, legacy.randomly_filled);
  const auto stats =
      evaluate_assignment(layout.nn, layout.tasks, legacy.assignment, layout.placement);
  EXPECT_EQ(facade.stats.local_bytes, stats.local_bytes);
  EXPECT_DOUBLE_EQ(facade.local_fraction(), stats.local_fraction());
}

TEST(PlannerFacade, WeightedMatchesLegacyFunction) {
  const auto layout = make_layout(2);
  Rng rng_facade(9), rng_legacy(9);
  PlanOptions options;
  options.planner = PlannerKind::kWeighted;
  const auto facade =
      plan({&layout.nn, &layout.tasks, &layout.placement, &rng_facade}, options);
  const auto legacy =
      assign_single_data_weighted(layout.nn, layout.tasks, layout.placement, rng_legacy);

  EXPECT_EQ(facade.assignment, legacy.assignment);
  EXPECT_EQ(facade.locally_matched, legacy.flow_assigned);
  EXPECT_EQ(facade.randomly_filled, legacy.fill_assigned);
  EXPECT_EQ(facade.matched_bytes, legacy.local_bytes);
}

TEST(PlannerFacade, RackAwareMatchesLegacyFunction) {
  const auto layout = make_layout(3);
  Rng rng_facade(9), rng_legacy(9);
  PlanOptions options;
  options.planner = PlannerKind::kRackAware;
  const auto facade =
      plan({&layout.nn, &layout.tasks, &layout.placement, &rng_facade}, options);
  const auto legacy =
      assign_single_data_rack_aware(layout.nn, layout.tasks, layout.placement, rng_legacy);

  EXPECT_EQ(facade.assignment, legacy.assignment);
  EXPECT_EQ(facade.locally_matched, legacy.node_local);
  EXPECT_EQ(facade.rack_local, legacy.rack_local);
  EXPECT_EQ(facade.randomly_filled, legacy.random_filled);
}

TEST(PlannerFacade, MultiDataMatchesLegacyFunctionAndNeedsNoRng) {
  const auto layout = make_layout(4, /*multi_input=*/true);
  // kMultiData is deterministic: no rng in the request.
  PlanOptions options;
  options.planner = PlannerKind::kMultiData;
  const auto facade = plan({&layout.nn, &layout.tasks, &layout.placement, nullptr}, options);
  const auto legacy = assign_multi_data(layout.nn, layout.tasks, layout.placement);

  EXPECT_EQ(facade.assignment, legacy.assignment);
  EXPECT_EQ(facade.reassignments, legacy.reassignments);
  EXPECT_EQ(facade.matched_bytes, legacy.matched_bytes);
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

TEST(PlannerFacade, KindNamesRoundTrip) {
  for (const auto kind : {PlannerKind::kSingleData, PlannerKind::kWeighted,
                          PlannerKind::kRackAware, PlannerKind::kMultiData}) {
    EXPECT_EQ(parse_planner_kind(planner_kind_name(kind)), kind);
  }
  try {
    parse_planner_kind("gale-shapley");
    FAIL() << "parse_planner_kind accepted an unknown name";
  } catch (const std::invalid_argument& e) {
    // The message must name the offender (so a typo in a config or CLI flag
    // is diagnosable from the error alone) and list the accepted spellings.
    EXPECT_NE(std::string(e.what()).find("gale-shapley"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("single-data"), std::string::npos) << e.what();
  }
}

TEST(PlannerFacade, MakeDynamicSourceDrainsEveryTask) {
  const auto layout = make_layout(7);
  Rng rng(9);
  const auto source = make_dynamic_source({&layout.nn, &layout.tasks, &layout.placement, &rng});
  ASSERT_NE(source, nullptr);

  // Drain round-robin: every task comes out exactly once.
  std::vector<int> seen(layout.tasks.size(), 0);
  std::uint32_t drained = 0;
  bool any = true;
  while (any) {
    any = false;
    for (runtime::ProcessId p = 0; p < layout.placement.size(); ++p) {
      if (const auto t = source->next_task(p, 0)) {
        ++seen[*t];
        ++drained;
        any = true;
      }
    }
  }
  EXPECT_EQ(drained, layout.tasks.size());
  for (std::size_t t = 0; t < seen.size(); ++t) EXPECT_EQ(seen[t], 1) << "task " << t;
}

TEST(PlannerFacade, FrontStealPolicyStillDrainsAndSteals) {
  const auto layout = make_layout(8);
  Rng rng(9);
  PlanOptions options;
  options.steal_policy = StealPolicy::kFront;
  const auto source =
      make_dynamic_source({&layout.nn, &layout.tasks, &layout.placement, &rng}, options);

  // Process 0 drains everything alone: every pull past its own list is a
  // front-steal from the longest victim.
  std::uint32_t drained = 0;
  while (source->next_task(0, 0)) ++drained;
  EXPECT_EQ(drained, layout.tasks.size());
  EXPECT_GT(source->steal_count(), 0u);
}

}  // namespace
}  // namespace opass::core
