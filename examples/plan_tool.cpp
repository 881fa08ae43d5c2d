// plan_tool — compute, save, inspect and verify Opass plans offline.
//
// The matcher is a pre-execution step: in a deployment it runs once in the
// job-submission process and the per-process task lists ship to the workers.
// This tool exercises that flow end to end on a synthetic layout:
//
//   plan_tool --nodes=64 --chunks=640 --out=plan.txt      # compute + save
//   plan_tool --verify=plan.txt --nodes=64 --chunks=640   # reload + check
//
// Planning goes through the unified core::plan() facade; --matcher selects
// the PlannerKind.
#include <cstdio>
#include <stdexcept>

#include "common/options.hpp"
#include "opass/opass.hpp"
#include "workload/dataset.hpp"

namespace {

using namespace opass;

int run(int argc, char** argv) {
  Options opts;
  opts.add("nodes", "64", "cluster size")
      .add("chunks", "640", "chunk files in the dataset")
      .add("replication", "3", "replication factor")
      .add("seed", "42", "layout seed")
      .add("matcher", "flow", "flow | weighted | rack-aware | algorithm1")
      .add("out", "", "write the plan to this file")
      .add("verify", "", "load a plan file and check it against the layout")
      .add("help", "false", "show usage");
  if (!opts.parse(argc, argv) || opts.boolean("help")) {
    if (!opts.error().empty()) std::fprintf(stderr, "error: %s\n", opts.error().c_str());
    std::fputs(opts.usage("plan_tool").c_str(), stderr);
    return opts.boolean("help") ? 0 : 2;
  }
  // --verify reads the layout flags and the plan file only: a planning flag
  // set to a non-default value with it is a usage error.
  if (!opts.str("verify").empty()) {
    for (const char* flag : {"matcher", "out"}) {
      if (opts.is_default(flag)) continue;
      std::fprintf(stderr, "error: --%s has no effect with --verify\n", flag);
      return 2;
    }
  }

  const auto nodes = opts.unsigned_integer("nodes", 1);
  const auto chunks = opts.unsigned_integer("chunks", 1);

  // Rebuild the (seeded) layout the plan refers to.
  dfs::NameNode nn(dfs::Topology::single_rack(nodes),
                   opts.unsigned_integer("replication", 1, nodes));
  dfs::RandomPlacement policy;
  Rng rng(opts.unsigned_integer<std::uint64_t>("seed"));
  const auto tasks = workload::make_single_data_workload(nn, chunks, policy, rng);
  const auto placement = core::one_process_per_node(nn);

  if (!opts.str("verify").empty()) {
    const auto assignment = core::load_assignment(opts.str("verify"));
    const auto stats = core::evaluate_assignment(nn, tasks, assignment, placement);
    std::printf("plan %s: %u tasks over %zu processes\n", opts.str("verify").c_str(),
                stats.task_count, assignment.size());
    std::printf("locality: %.1f%% of bytes local; load %u..%u tasks/process\n",
                100 * stats.local_fraction(), stats.min_tasks_per_process,
                stats.max_tasks_per_process);
    return 0;
  }

  core::PlanOptions popts;
  const std::string matcher = opts.str("matcher");
  if (matcher == "flow") {
    popts.planner = core::PlannerKind::kSingleData;
  } else if (matcher == "weighted") {
    popts.planner = core::PlannerKind::kWeighted;
  } else if (matcher == "rack-aware") {
    popts.planner = core::PlannerKind::kRackAware;
  } else if (matcher == "algorithm1") {
    popts.planner = core::PlannerKind::kMultiData;
  } else {
    std::fprintf(stderr, "unknown matcher '%s'\n", matcher.c_str());
    return 2;
  }

  Rng arng(7);
  const auto result = core::plan({&nn, &tasks, &placement, &arng}, popts);
  std::printf("%s planner: %u matched, %u filled, %u rack-local, %u reassignments\n",
              core::planner_kind_name(result.planner), result.locally_matched,
              result.randomly_filled, result.rack_local, result.reassignments);
  std::printf("plan quality: %.1f%% of bytes local, %u..%u tasks/process\n",
              100 * result.local_fraction(), result.stats.min_tasks_per_process,
              result.stats.max_tasks_per_process);

  if (!opts.str("out").empty()) {
    core::save_assignment(opts.str("out"), result.assignment, chunks);
    std::printf("plan written to %s\n", opts.str("out").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Malformed flag values and plan files throw std::invalid_argument naming
  // what is wrong: a usage error, not a crash.
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
