// ParaView-style visualization pipeline (the Section V-B scenario).
//
// Models pvbatch driving a MultiBlock dataset series: a meta-file indexes
// 640 VTK sub-datasets; every rendering step reads 64 of them (~3.8 GB) on
// 64 data-server processes and renders. With Opass, the reader's data
// assignment (the ReadXMLData() hook) is computed by the matching-based
// assigner instead of by process rank, so each data server's pieces are
// locally accessible.
//
// Usage: paraview_pipeline [--nodes=64] [--datasets=640] [--per-step=64]
#include <cstdio>
#include <stdexcept>

#include "common/options.hpp"
#include "exp/experiment.hpp"

namespace {

using namespace opass;

int run(int argc, char** argv) {
  Options opts;
  opts.add("nodes", "64", "cluster size (at least the 3 replicas)")
      .add("datasets", "640", "VTK sub-datasets in the series")
      .add("per-step", "64", "datasets read per rendering step (at most --datasets)");
  if (!opts.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", opts.error().c_str());
    std::fputs(opts.usage("paraview_pipeline").c_str(), stderr);
    return 2;
  }

  exp::ExperimentConfig cfg;
  cfg.nodes = opts.unsigned_integer("nodes", cfg.replication);
  cfg.seed = 2015;

  workload::ParaViewSpec spec;
  spec.dataset_count = opts.unsigned_integer("datasets", 1);
  spec.datasets_per_step = opts.unsigned_integer("per-step", 1, spec.dataset_count);

  std::printf("ParaView MultiBlock pipeline: %u nodes, %u datasets (%.1f GiB), "
              "%u per rendering step\n\n",
              cfg.nodes, spec.dataset_count,
              to_gib(static_cast<Bytes>(spec.dataset_count) * spec.bytes_per_dataset),
              spec.datasets_per_step);

  for (auto method : {exp::Method::kBaseline, exp::Method::kOpass}) {
    const auto out = exp::run_paraview(cfg, method, spec);
    std::printf("%-22s  read avg %.2fs (stddev %.3f)  local %5.1f%%  total %.0fs\n",
                method == exp::Method::kBaseline ? "rank-based reader:" : "opass reader:",
                out.run.io.mean, out.run.io.stddev, 100 * out.run.local_fraction,
                out.total_time);
    std::printf("  step times:");
    for (Seconds t : out.step_times) std::printf(" %.1f", t);
    std::printf(" s\n\n");
  }
  std::printf("The rank-based reader's slow steps are renders stalled on one hot storage\n"
              "node; the Opass reader keeps every step near the local-read floor.\n");
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
