#include "opass/planner.hpp"

#include <chrono>

#include "common/require.hpp"
#include "opass/matchers.hpp"

namespace opass::core {

const char* planner_kind_name(PlannerKind kind) {
  switch (kind) {
    case PlannerKind::kSingleData: return "single-data";
    case PlannerKind::kWeighted: return "weighted";
    case PlannerKind::kRackAware: return "rack-aware";
    case PlannerKind::kMultiData: return "multi-data";
  }
  OPASS_CHECK(false, "unhandled PlannerKind");
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kPlanned: return "planned";
    case JobState::kCompleted: return "completed";
    case JobState::kCancelled: return "cancelled";
  }
  OPASS_CHECK(false, "unhandled JobState");
}

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
      .count();
}

void validate(const PlanRequest& request, PlannerKind planner) {
  OPASS_REQUIRE(request.nn != nullptr, "PlanRequest.nn must be set");
  OPASS_REQUIRE(request.tasks != nullptr, "PlanRequest.tasks must be set");
  OPASS_REQUIRE(request.placement != nullptr, "PlanRequest.placement must be set");
  if (planner != PlannerKind::kMultiData)
    OPASS_REQUIRE(request.rng != nullptr, "PlanRequest.rng must be set for flow planners");
}

}  // namespace

PlanResult plan(const PlanRequest& request, PlanOptions options) {
  validate(request, options.planner);
  const dfs::NameNode& nn = *request.nn;
  const auto& tasks = *request.tasks;
  const auto& placement = *request.placement;

  PlanResult result;
  const auto plan_begin = std::chrono::steady_clock::now();
  switch (options.planner) {
    case PlannerKind::kSingleData:
      result = assign_single_data(nn, tasks, placement, *request.rng, options.workspace);
      break;
    case PlannerKind::kWeighted:
      result =
          assign_single_data_weighted(nn, tasks, placement, *request.rng, options.workspace);
      break;
    case PlannerKind::kRackAware:
      result =
          assign_single_data_rack_aware(nn, tasks, placement, *request.rng, options.workspace);
      break;
    case PlannerKind::kMultiData:
      result = assign_multi_data(nn, tasks, placement);
      break;
  }
  result.plan_wall_ms = elapsed_ms(plan_begin);
  result.planner = options.planner;
  const auto stats_begin = std::chrono::steady_clock::now();
  result.stats = evaluate_assignment(nn, tasks, result.assignment, placement);
  result.stats_wall_ms = elapsed_ms(stats_begin);
  return result;
}

}  // namespace opass::core
