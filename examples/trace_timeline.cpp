// trace_timeline — render the serving activity of every storage node as an
// ASCII Gantt chart, baseline vs Opass. The baseline's picture is the
// paper's Figure 1 made visible: a few lanes solid with remote serves while
// others sit empty; with Opass every lane carries one tidy local stripe.
//
// Usage: trace_timeline [--nodes=16] [--chunks=<3 per node>]
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "opass/opass.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace {

using namespace opass;

/// Paint each read on its serving node's lane of a `kColumns`-wide time
/// axis over [0, horizon): from its issue column to its end column (at
/// least one cell, so short reads stay visible), later reads winning.
/// `horizon` lies past every read's end, so no read needs clipping.
void show(const char* title, const sim::TraceRecorder& trace, std::uint32_t nodes,
          Seconds horizon) {
  constexpr std::size_t kColumns = 72;
  std::vector<std::string> lanes(nodes, std::string(kColumns, ' '));
  const double scale = static_cast<double>(kColumns) / horizon;
  const auto column = [scale](Seconds t) { return static_cast<std::size_t>(t * scale); };
  for (const auto& r : trace.records())
    for (std::size_t c = column(r.issue_time); c <= column(r.end_time); ++c)
      lanes[r.serving_node][c] = r.local ? 'L' : 'R';

  std::printf("%s  (L = serving local read, R = serving remote read)\n", title);
  // Labels are padded to the longest, the last node's.
  const int width = std::snprintf(nullptr, 0, "node-%02u", nodes - 1);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    char label[16];
    std::snprintf(label, sizeof label, "node-%02u", n);
    std::printf("%-*s |%s|\n", width, label, lanes[n].c_str());
  }
  // Time-axis footer: 0.0s under the first column, the horizon right-aligned
  // under the closing bar.
  char end[32];
  std::snprintf(end, sizeof end, "%.1fs", horizon);
  std::printf("%*s 0.0s%*s\n\n", width, "", static_cast<int>(kColumns) - 2, end);
}

int run(int argc, char** argv) {
  Options opts;
  opts.add("nodes", "16", "cluster size (at least the 3 replicas)")
      .add("chunks", "", "chunk files in the dataset (empty: 3 per node)");
  if (!opts.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", opts.error().c_str());
    std::fputs(opts.usage("trace_timeline").c_str(), stderr);
    return 2;
  }
  const std::uint32_t nodes = opts.unsigned_integer("nodes", 3);
  const std::uint32_t chunks =
      opts.is_default("chunks") ? nodes * 3 : opts.unsigned_integer("chunks", 1);

  dfs::NameNode nn(dfs::Topology::single_rack(nodes), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(99);
  const auto tasks = workload::make_single_data_workload(nn, chunks, policy, rng);
  const auto placement = core::one_process_per_node(nn);

  std::printf("Serving timelines: %u nodes, %u chunks of 64 MiB, r=3\n\n", nodes, chunks);

  sim::TraceRecorder base_trace, opass_trace;
  Seconds base_end = 0, opass_end = 0;
  {
    sim::Cluster cluster(nodes);
    runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(chunks, nodes));
    Rng exec_rng(7);
    const auto r = runtime::execute(cluster, nn, tasks, source, exec_rng);
    base_trace = r.trace;
    base_end = r.makespan;
  }
  {
    Rng arng(5);
    const auto plan = core::plan({&nn, &tasks, &placement, &arng});
    sim::Cluster cluster(nodes);
    runtime::StaticAssignmentSource source(plan.assignment);
    Rng exec_rng(7);
    const auto r = runtime::execute(cluster, nn, tasks, source, exec_rng);
    opass_trace = r.trace;
    opass_end = r.makespan;
  }

  const Seconds horizon = std::max(base_end, opass_end) * 1.02;
  show("rank-interval baseline", base_trace, nodes, horizon);
  show("opass", opass_trace, nodes, horizon);
  std::printf("baseline makespan %.1f s; opass makespan %.1f s\n", base_end, opass_end);
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
