// perf_executor — reproducible execution-replay micro-benchmark.
//
// Complements perf_planner: plans each fixed-seed scenario once (Dinic
// through the core::plan() facade), then replays the assignment on the
// flow-level cluster simulator `repeats` times, measuring the *wall time* of
// the replay (simulator throughput), the simulated makespan, and the
// observed local-read percentage. Emits BENCH_executor.json:
//
//   perf_executor                      # full matrix -> BENCH_executor.json
//   perf_executor --smoke              # small scenarios, fewer repeats (CI)
//   perf_executor --out=path.json
//
// The JSON is diffed across commits by tools/bench_compare.py.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/analytics.hpp"
#include "obs/collect.hpp"
#include "opass/opass.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace {

using namespace opass;

struct Scenario {
  const char* name;
  std::uint32_t nodes;
  std::uint32_t tasks;
  std::uint32_t replication;
  std::uint64_t seed;
  std::uint32_t repeats;
  bool smoke;  ///< included in the --smoke matrix
};

constexpr Scenario kScenarios[] = {
    {"paper-64n-640t-r3", 64, 640, 3, 42, 7, true},
    {"medium-128n-1280t-r3", 128, 1280, 3, 3, 5, true},
    {"wide-256n-2560t-r3", 256, 2560, 3, 6, 5, false},
    {"large-256n-10240t-r3", 256, 10240, 3, 7, 3, false},
    {"huge-1024n-40960t-r3", 1024, 40960, 3, 9, 3, false},
};

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_executor.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      std::fprintf(stderr, "usage: perf_executor [--out=path.json] [--smoke]\n");
      return 2;
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }

  std::fprintf(f, "{\n  \"bench\": \"executor\",\n  \"schema\": 1,\n  \"scenarios\": [\n");
  bool first = true;
  for (const Scenario& sc : kScenarios) {
    if (smoke && !sc.smoke) continue;

    dfs::NameNode nn(dfs::Topology::single_rack(sc.nodes), sc.replication);
    dfs::RandomPlacement policy;
    Rng layout_rng(sc.seed);
    const auto tasks = workload::make_single_data_workload(nn, sc.tasks, policy, layout_rng);
    const auto placement = core::one_process_per_node(nn);

    Rng assign_rng(sc.seed * 7919 + 1);
    const auto plan = core::plan({&nn, &tasks, &placement, &assign_rng});

    double wall_ms_min = 0, total_ms = 0;
    Seconds makespan = 0;
    double local_pct = 0;
    obs::MetricsRegistry reg;
    obs::ExecutionAnalytics analytics;
    for (std::uint32_t rep = 0; rep < sc.repeats; ++rep) {
      sim::Cluster cluster(sc.nodes, {});
      runtime::StaticAssignmentSource source(plan.assignment);
      runtime::ExecutorConfig ec;
      ec.process_count = static_cast<std::uint32_t>(placement.size());
      Rng exec_rng(sc.seed * 7919 + 2);  // identical stream every repeat

      const auto t0 = std::chrono::steady_clock::now();
      const auto exec = runtime::execute(cluster, nn, tasks, source, exec_rng, ec);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      total_ms += ms;
      if (rep == 0 || ms < wall_ms_min) wall_ms_min = ms;
      makespan = exec.makespan;
      local_pct = 100.0 * exec.trace.local_fraction();
      if (rep == 0) {  // deterministic replay: every repeat collects the same
        obs::collect_execution(reg, exec, sc.nodes, "executor");
        obs::collect_cluster(reg, cluster, "cluster");
        analytics = obs::analyze_execution(exec, sc.nodes);
      }
    }

    // Embedded observability metrics (diffed by tools/bench_compare.py; the
    // CI smoke job gates on degree_of_imbalance): read totals from the
    // collectors, the hottest disk's convoy depth and thrash events across
    // the cluster, and the serve-bytes imbalance analytics from rep 0.
    const std::uint64_t reads_total = reg.at("executor.reads_total").counter;
    const std::uint64_t reads_local = reg.at("executor.reads_local").counter;
    const std::uint64_t bytes_local = reg.at("executor.bytes_local").counter;
    const std::uint64_t read_failures = reg.at("executor.read_failures").counter;
    double disk_peak_load_max = 0;
    std::uint64_t degraded_joins = 0;
    for (std::uint32_t n = 0; n < sc.nodes; ++n) {
      const std::string node = "cluster.node." + std::to_string(n);
      disk_peak_load_max =
          std::max(disk_peak_load_max, reg.at(node + ".disk_peak_load").gauge);
      degraded_joins += reg.at(node + ".disk_degraded_joins").counter;
    }
    // Engine scalability gauges: flow_slots tracks peak concurrency thanks to
    // slot reuse (it must stay near the process count, never the read total).
    const double flow_slots = reg.at("cluster.sim.flow_slots").gauge;
    const std::uint64_t rate_recomputes = reg.at("cluster.sim.rate_recomputes").counter;
    const std::uint64_t relevel_touched =
        reg.at("cluster.sim.rate_recompute_touched_flows").counter;

    std::fprintf(f, "%s", first ? "" : ",\n");
    first = false;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"nodes\": %u, \"tasks\": %u, \"replication\": %u, "
                 "\"seed\": %llu, \"repeats\": %u,\n"
                 "     \"wall_ms_min\": %.4f, \"wall_ms_mean\": %.4f, \"makespan_s\": %.4f, "
                 "\"local_pct\": %.2f, \"peak_rss_kb\": %ld,\n"
                 "     \"metrics\": {\"reads_total\": %llu, \"reads_local\": %llu, "
                 "\"bytes_local_mib\": %.2f, \"read_failures\": %llu, "
                 "\"disk_peak_load_max\": %.0f, \"disk_degraded_joins\": %llu, "
                 "\"flow_slots\": %.0f, \"rate_recomputes\": %llu, "
                 "\"relevel_touched_flows\": %llu,\n"
                 "     \"degree_of_imbalance\": %.4f, \"serve_cv\": %.4f, "
                 "\"serve_gini\": %.4f, \"serve_peak_over_mean\": %.4f, "
                 "\"straggler_nodes\": %zu, \"straggler_processes\": %zu}}",
                 sc.name, sc.nodes, sc.tasks, sc.replication,
                 static_cast<unsigned long long>(sc.seed), sc.repeats, wall_ms_min,
                 total_ms / sc.repeats, makespan, local_pct, peak_rss_kb(),
                 static_cast<unsigned long long>(reads_total),
                 static_cast<unsigned long long>(reads_local), to_mib(bytes_local),
                 static_cast<unsigned long long>(read_failures), disk_peak_load_max,
                 static_cast<unsigned long long>(degraded_joins), flow_slots,
                 static_cast<unsigned long long>(rate_recomputes),
                 static_cast<unsigned long long>(relevel_touched),
                 analytics.serve_bytes.degree_of_imbalance, analytics.serve_bytes.cv,
                 analytics.serve_bytes.gini, analytics.serve_bytes.peak_over_mean,
                 analytics.straggler_nodes.size(), analytics.straggler_processes.size());

    std::printf("%-24s replay %8.3f ms  makespan %8.2f s  local %5.1f%%\n", sc.name,
                wall_ms_min, makespan, local_pct);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
