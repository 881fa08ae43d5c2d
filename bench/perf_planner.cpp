// perf_planner — reproducible planner micro-benchmark.
//
// Runs the single-data matcher (Dinic max-flow + random fill) over a
// fixed-seed scenario matrix (nodes x tasks x replication) and emits a
// machine-readable JSON report (BENCH_planner.json by default):
//
//   perf_planner                      # full matrix -> BENCH_planner.json
//   perf_planner --smoke              # small scenarios, fewer repeats (CI)
//   perf_planner --out=path.json
//
// Per scenario it records min/mean wall time over `repeats` identical runs
// (same assign seed, shared FlowWorkspace, so steady-state repeats measure
// solve time, not allocation), the matched-task count and locality
// percentage, and a plan_audit verdict. The report keeps schema 1's
// per-solver "algorithms" object with its single "dinic" entry; it is
// diffed by tools/bench_compare.py, which is what the CI smoke job gates on.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "opass/opass.hpp"
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
    {"tiny-16n-160t-r3", 16, 160, 3, 1, 9, true},
    {"paper-64n-640t-r3", 64, 640, 3, 42, 9, true},
    {"medium-128n-1280t-r3", 128, 1280, 3, 3, 7, true},
    {"replication-1-64n-640t", 64, 640, 1, 4, 9, false},
    {"replication-5-64n-640t", 64, 640, 5, 5, 9, false},
    {"wide-256n-2560t-r3", 256, 2560, 3, 6, 5, false},
    {"large-256n-10240t-r3", 256, 10240, 3, 7, 5, false},
};

struct SolverResult {
  double wall_ms_min = 0;
  double wall_ms_mean = 0;
  std::uint32_t locally_matched = 0;
  double locality_pct = 0;
  bool audit_ok = false;
  // Embedded facade metrics (from the last repeat's PlanResult); diffed
  // informationally by tools/bench_compare.py.
  std::uint32_t randomly_filled = 0;
  double plan_wall_ms = 0;   ///< facade's own matcher-dispatch timing
  double stats_wall_ms = 0;  ///< facade's evaluate_assignment timing
};

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

SolverResult run_solver(const Scenario& sc, const dfs::NameNode& nn,
                        const std::vector<runtime::Task>& tasks,
                        const core::ProcessPlacement& placement) {
  SolverResult out;
  graph::FlowWorkspace workspace;
  core::PlanOptions options;
  options.workspace = &workspace;

  double total_ms = 0;
  core::PlanResult last;
  for (std::uint32_t rep = 0; rep < sc.repeats; ++rep) {
    Rng assign_rng(sc.seed * 7919 + 1);  // identical stream every repeat
    const auto t0 = std::chrono::steady_clock::now();
    last = core::plan({&nn, &tasks, &placement, &assign_rng}, options);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    total_ms += ms;
    if (rep == 0 || ms < out.wall_ms_min) out.wall_ms_min = ms;
  }
  out.wall_ms_mean = total_ms / sc.repeats;
  out.locally_matched = last.locally_matched;
  out.locality_pct = sc.tasks ? 100.0 * last.locally_matched / sc.tasks : 0.0;
  out.randomly_filled = last.randomly_filled;
  out.plan_wall_ms = last.plan_wall_ms;
  out.stats_wall_ms = last.stats_wall_ms;

  core::AuditOptions audit_options;
  audit_options.enforce_capacity = true;
  const auto report = core::audit_plan(nn, tasks, last.assignment, placement, audit_options);
  out.audit_ok = report.ok();
  if (!out.audit_ok)
    std::fprintf(stderr, "audit FAILED for %s:\n%s", sc.name, report.to_string().c_str());
  return out;
}

void emit_solver(std::FILE* f, const SolverResult& r) {
  std::fprintf(f,
               "      \"dinic\": {\"wall_ms_min\": %.4f, \"wall_ms_mean\": %.4f, "
               "\"locally_matched\": %u, \"locality_pct\": %.2f, \"audit_ok\": %s,\n"
               "        \"metrics\": {\"randomly_filled\": %u, \"plan_wall_ms\": %.4f, "
               "\"stats_wall_ms\": %.4f}}\n",
               r.wall_ms_min, r.wall_ms_mean, r.locally_matched, r.locality_pct,
               r.audit_ok ? "true" : "false", r.randomly_filled, r.plan_wall_ms,
               r.stats_wall_ms);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_planner.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      std::fprintf(stderr, "usage: perf_planner [--out=path.json] [--smoke]\n");
      return 2;
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }

  std::fprintf(f, "{\n  \"bench\": \"planner\",\n  \"schema\": 1,\n  \"scenarios\": [\n");
  bool first = true;
  int rc = 0;
  for (const Scenario& sc : kScenarios) {
    if (smoke && !sc.smoke) continue;

    // Seeded layout: identical namespace + workload on every run.
    dfs::NameNode nn(dfs::Topology::single_rack(sc.nodes), sc.replication);
    dfs::RandomPlacement policy;
    Rng layout_rng(sc.seed);
    const auto tasks = workload::make_single_data_workload(nn, sc.tasks, policy, layout_rng);
    const auto placement = core::one_process_per_node(nn);

    const SolverResult result = run_solver(sc, nn, tasks, placement);
    if (!result.audit_ok) rc = 1;

    std::fprintf(f, "%s", first ? "" : ",\n");
    first = false;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"nodes\": %u, \"tasks\": %u, \"replication\": %u, "
                 "\"seed\": %llu, \"repeats\": %u,\n     \"algorithms\": {\n",
                 sc.name, sc.nodes, sc.tasks, sc.replication,
                 static_cast<unsigned long long>(sc.seed), sc.repeats);
    emit_solver(f, result);
    std::fprintf(f, "     },\n     \"peak_rss_kb\": %ld}", peak_rss_kb());

    std::printf("%-24s dinic %8.3f ms  matched %u/%u  audit=%s\n", sc.name,
                result.wall_ms_min, result.locally_matched, sc.tasks,
                result.audit_ok ? "ok" : "FAILED");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return rc;
}
