// Section V-C — efficiency and overhead of the matching method.
//
// The paper: "the overhead created by the matching method was less than 1%
// of the overhead involved with accessing the whole dataset" and "reading a
// single chunk file remotely could take more than 2 seconds, the worst case
// being 12 seconds".
//
// google-benchmark microbenchmarks of the matchers (through core::plan())
// across problem sizes, followed by the explicit overhead-vs-data-access
// comparison.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "exp/experiment.hpp"
#include "opass/opass.hpp"
#include "workload/dataset.hpp"
#include "workload/multi_input.hpp"

namespace {

using namespace opass;

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

void BM_SingleDataDinic(benchmark::State& state) {
  Env env(static_cast<std::uint32_t>(state.range(0)),
          static_cast<std::uint32_t>(state.range(0)) * 10, false);
  for (auto _ : state) {
    Rng rng(1);
    benchmark::DoNotOptimize(core::plan({&env.nn, &env.tasks, &env.placement, &rng}));
  }
}
BENCHMARK(BM_SingleDataDinic)->Arg(16)->Arg(64)->Arg(128);

void BM_MultiDataAlgorithm1(benchmark::State& state) {
  Env env(static_cast<std::uint32_t>(state.range(0)),
          static_cast<std::uint32_t>(state.range(0)) * 10, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::plan({&env.nn, &env.tasks, &env.placement, nullptr},
                                        {.planner = core::PlannerKind::kMultiData}));
  }
}
BENCHMARK(BM_MultiDataAlgorithm1)->Arg(16)->Arg(64)->Arg(128);

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

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_overhead_table();
  return 0;
}
