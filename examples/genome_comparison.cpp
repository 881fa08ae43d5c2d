// mpiBLAST-style gene comparison with dynamic task assignment (Sections
// II-B, IV-D and V-A3).
//
// A gene database is partitioned into chunk files stored in the DFS; the
// comparison time of each partition is irregular (heavy-tailed), so a master
// process assigns tasks to idle slaves at run time. The default master is
// locality-blind; the Opass master precomputes matching-based guideline
// lists and lets idle slaves steal the best co-located task from the longest
// remaining list.
//
// Usage: genome_comparison [--nodes=64] [--partitions=640] [--compute=0.4]
#include <cstdio>
#include <stdexcept>

#include "common/options.hpp"
#include "common/stats.hpp"
#include "exp/experiment.hpp"

namespace {

using namespace opass;

int run(int argc, char** argv) {
  Options opts;
  opts.add("nodes", "64", "cluster size (at least the 3 replicas)")
      .add("partitions", "640", "database partitions, one 64 MiB chunk each")
      .add("compute", "0.4", "mean compute seconds per comparison task");
  if (!opts.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", opts.error().c_str());
    std::fputs(opts.usage("genome_comparison").c_str(), stderr);
    return 2;
  }

  exp::ExperimentConfig cfg;
  cfg.nodes = opts.unsigned_integer("nodes", cfg.replication);
  cfg.seed = 1997;  // BLAST's birth year

  const std::uint32_t partitions = opts.unsigned_integer("partitions", 1);
  workload::GenomicsSpec spec;
  spec.mean_compute_time = opts.real("compute");
  if (!(spec.mean_compute_time >= 0))
    throw std::invalid_argument("flag --compute must be non-negative");

  std::printf("Gene comparison: %u nodes, %u database partitions of 64 MiB, "
              "heavy-tailed compute (mean %.2f s)\n\n",
              cfg.nodes, partitions, spec.mean_compute_time);

  for (auto method : {exp::Method::kBaseline, exp::Method::kOpass}) {
    const auto out = exp::run_dynamic(cfg, partitions, method, spec);
    std::printf("%-16s  avg read %.2fs  p99 %.2fs  local %5.1f%%  makespan %.1fs\n",
                method == exp::Method::kBaseline ? "default master:" : "opass master:",
                out.io.mean, out.io.p99, 100 * out.local_fraction, out.makespan);
  }

  std::printf("\nThe Opass master keeps load balance (idle slaves always get work via\n"
              "stealing) while serving almost all reads locally; the default master\n"
              "balances load but forces ~%.0f%% of reads to be remote.\n",
              100.0 * (1.0 - 3.0 / cfg.nodes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Malformed flag values throw std::invalid_argument naming the flag: a
  // usage error, not a crash.
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
