// Section V-C — efficiency and overhead of the matching method.
//
// The paper: "the overhead created by the matching method was less than 1%
// of the overhead involved with accessing the whole dataset" and "reading a
// single chunk file remotely could take more than 2 seconds, the worst case
// being 12 seconds".
//
// Matcher wall time (through core::plan()) across problem sizes, followed by
// the explicit overhead-vs-data-access comparison.
#include <cstdio>

#include "common/table.hpp"
#include "exp/experiment.hpp"
#include "opass/opass.hpp"
#include "workload/dataset.hpp"
#include "workload/multi_input.hpp"

namespace {

using namespace opass;

constexpr int kRepeats = 5;

struct Env {
  Env(std::uint32_t nodes, std::uint32_t chunks, bool multi) :
      nn(dfs::Topology::single_rack(nodes), 3, kDefaultChunkSize), rng(99) {
    dfs::RandomPlacement policy;
    tasks = multi ? workload::make_multi_input_workload(nn, chunks, policy, rng)
                  : workload::make_single_data_workload(nn, chunks, policy, rng);
    placement = core::one_process_per_node(nn);
  }
  dfs::NameNode nn;
  Rng rng;
  std::vector<runtime::Task> tasks;
  core::ProcessPlacement placement;
};

/// Minimum PlanResult::plan_wall_ms over kRepeats plans of one layout with
/// ten tasks per node: the single-data max-flow matcher or Algorithm 1.
double min_plan_ms(std::uint32_t nodes, bool multi) {
  Env env(nodes, nodes * 10, multi);
  double best = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    Rng rng(1);
    core::PlanOptions options;
    options.planner = multi ? core::PlannerKind::kMultiData : core::PlannerKind::kSingleData;
    const double ms =
        core::plan({&env.nn, &env.tasks, &env.placement, &rng}, options).plan_wall_ms;
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

/// The paper's <1% claim: wall-clock matcher cost vs simulated time to read
/// the dataset (which is what the application actually waits for).
void print_overhead_table() {
  std::printf("\nOverhead of matching vs. data access (64 nodes, 640 chunks):\n");
  Env env(64, 640, false);

  // plan_wall_ms times the matcher alone (graph build, solve and fill),
  // without plan()'s stats pass.
  Rng rng(1);
  const double match_ms = core::plan({&env.nn, &env.tasks, &env.placement, &rng}).plan_wall_ms;

  exp::ExperimentConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 99;
  const auto out = exp::run_single_data(cfg, 640, exp::Method::kOpass);
  const double access_ms = out.makespan * 1000.0;

  std::printf("  matching time:          %8.2f ms (wall clock)\n", match_ms);
  std::printf("  dataset access time:    %8.2f ms (simulated parallel read)\n", access_ms);
  std::printf("  overhead:               %8.3f %%  (paper: < 1%%)\n",
              100.0 * match_ms / access_ms);

  const auto base = exp::run_single_data(cfg, 640, exp::Method::kBaseline);
  std::printf("\nRemote-read magnitudes (baseline run): avg %.2f s, worst %.2f s\n",
              base.io.mean, base.io.max);
  std::printf("(paper: remote chunk reads >2 s, worst case 12 s; local ~1 s)\n");
}

}  // namespace

int main() {
  std::printf("Matcher wall time, min of %d plans (ms; 10 tasks per node):\n\n", kRepeats);
  Table t({"nodes", "single-data", "multi-data"});
  for (std::uint32_t m : {16u, 64u, 128u})
    t.add_row({Table::integer(m), Table::num(min_plan_ms(m, false), 3),
               Table::num(min_plan_ms(m, true), 3)});
  std::fputs(t.render().c_str(), stdout);
  print_overhead_table();
  return 0;
}
