// Figure 1 — motivation experiment.
//
// "we launch an MPI-based application running with parallel processes on a
// 64-node cluster to read a data set, which contains 128 chunks, each around
// 64 MB. Ideally, each node should serve 2 chunks. However ... some nodes,
// for instance node-43, serve more than 6 chunks while some node serve
// none."
//
// Prints (a) chunks served per node and (b) the I/O-time histogram, plus the
// same run with Opass for contrast.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "exp/experiment.hpp"

namespace {

/// Print `values` in ten 1-second bins over [0, 10) s, values outside
/// clamped into the end bins, one line per bin with a bar of up to 50 '#'
/// proportional to the fullest bin:
///   [   0.00,    1.00)  ################ 412
void print_io_histogram(const std::vector<double>& values) {
  constexpr std::ptrdiff_t kBins = 10;
  std::size_t counts[kBins] = {};
  for (double v : values) {
    const auto bin = static_cast<std::ptrdiff_t>(std::floor(v));
    ++counts[std::clamp<std::ptrdiff_t>(bin, 0, kBins - 1)];
  }
  const std::size_t peak = *std::max_element(counts, counts + kBins);
  for (std::ptrdiff_t b = 0; b < kBins; ++b) {
    const auto lo = static_cast<double>(b);
    const std::size_t bar = peak == 0 ? 0 : (counts[b] * 50 + peak - 1) / peak;
    std::printf("[%7.2f, %7.2f)  %s %zu\n", lo, lo + 1.0, std::string(bar, '#').c_str(),
                counts[b]);
  }
}

}  // namespace

int main() {
  using namespace opass;

  exp::ExperimentConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 20150529;  // IPDPS'15 conference date as a fixed seed

  const std::uint32_t chunks = 128;
  std::printf("Figure 1: imbalanced parallel reads — 64 nodes, %u chunks of 64 MiB\n\n",
              chunks);

  const auto base = exp::run_single_data(cfg, chunks, exp::Method::kBaseline);
  const auto opass = exp::run_single_data(cfg, chunks, exp::Method::kOpass);

  // (a) chunks served per node — the paper's bar chart as a table of the
  // interesting rows plus a summary.
  std::printf("Fig 1(a): size of data served on each node (ideal: 2 chunks = 128 MiB)\n");
  Table ta({"node", "baseline (MiB)", "baseline (chunks)", "opass (MiB)"});
  std::uint32_t max_node = 0;
  for (std::uint32_t n = 0; n < cfg.nodes; ++n)
    if (base.served_mb[n] > base.served_mb[max_node]) max_node = n;
  std::uint32_t idle = 0;
  for (std::uint32_t n = 0; n < cfg.nodes; ++n)
    if (base.served_mb[n] == 0) ++idle;
  for (std::uint32_t n = 0; n < cfg.nodes; n += 8) {
    ta.add_row({Table::integer(n), Table::num(base.served_mb[n], 0),
                Table::num(base.served_mb[n] / 64.0, 1), Table::num(opass.served_mb[n], 0)});
  }
  ta.add_row({"max=" + std::to_string(max_node), Table::num(base.served_mb[max_node], 0),
              Table::num(base.served_mb[max_node] / 64.0, 1),
              Table::num(opass.served_mb[max_node], 0)});
  std::fputs(ta.render().c_str(), stdout);
  std::printf("\nbaseline: hottest node serves %.1f chunks; %u nodes serve none "
              "(paper: >6 chunks / some serve none)\n\n",
              base.served_mb[max_node] / 64.0, idle);

  // (b) I/O execution time histogram.
  std::printf("Fig 1(b): histogram of per-chunk I/O times (s), baseline\n");
  print_io_histogram(base.io_times);
  std::printf("\nsame with Opass\n");
  print_io_histogram(opass.io_times);

  std::printf("\nbaseline I/O times: min %.2f / avg %.2f / max %.2f s (paper: large spread)\n",
              base.io.min, base.io.mean, base.io.max);
  std::printf("opass    I/O times: min %.2f / avg %.2f / max %.2f s\n", opass.io.min,
              opass.io.mean, opass.io.max);
  return 0;
}
