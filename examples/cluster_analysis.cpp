// Analytic cluster planning with the Section III models.
//
// Answers, for a cluster you are about to deploy: how local will naive
// parallel reads be, and how unbalanced will the storage nodes get? This is
// the paper's motivation analysis turned into a planning tool.
//
// Usage: cluster_analysis [--nodes=128] [--chunks=512] [--replication=3]
#include <cstdio>
#include <stdexcept>

#include "analysis/balance_model.hpp"
#include "analysis/locality_model.hpp"
#include "common/options.hpp"
#include "common/table.hpp"

namespace {

using namespace opass;

int run(int argc, char** argv) {
  Options opts;
  opts.add("nodes", "128", "cluster size")
      .add("chunks", "512", "chunk files in the dataset")
      .add("replication", "3", "replication factor (at most --nodes)");
  if (!opts.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", opts.error().c_str());
    std::fputs(opts.usage("cluster_analysis").c_str(), stderr);
    return 2;
  }
  const std::uint32_t m = opts.unsigned_integer("nodes", 1);
  const std::uint32_t n = opts.unsigned_integer("chunks", 1);
  const std::uint32_t r = opts.unsigned_integer("replication", 1, m);

  std::printf("Cluster plan: m=%u nodes, n=%u chunks, r=%u replicas\n\n", m, n, r);

  const analysis::LocalityModel naive{m, r, n};  // random replica choice
  const analysis::LocalityModel best{m, r, n, analysis::LocalityMode::kCoLocated};
  std::printf("Per-node expected locally readable chunks (replica co-location): %.1f\n",
              best.expected_local_reads());
  std::printf("Expected locally served chunks under naive random replica choice: %.1f\n",
              naive.expected_local_reads());
  std::printf("P(a node serves more than 5 chunks locally, naive): %.2f%%\n\n",
              100 * naive.sf_local_reads(5));

  const analysis::BalanceModel bal{m, r, n};
  std::printf("Serve-count distribution under locality-blind parallel reads:\n");
  Table t({"k (chunks served)", "P(Z<=k)", "E[#nodes <=k]", "E[#nodes >k]"});
  for (std::uint64_t k = 0; k <= 2 * n / m + 8; k += (n / m > 4 ? n / (4 * m) : 1)) {
    t.add_row({Table::integer(static_cast<long long>(k)),
               Table::num(bal.cdf_chunks_served(k), 4),
               Table::num(bal.expected_nodes_serving_at_most(k), 1),
               Table::num(bal.expected_nodes_serving_more_than(k), 1)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nIdeal (balanced) load would be %.1f chunks per node. The tail above\n"
              "shows how many nodes will serve multiples of that — the contention\n"
              "Opass removes by matching processes to co-located data.\n",
              bal.expected_chunks_served());
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
