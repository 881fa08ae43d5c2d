// Shared-cluster experiment (paper Section V-C1).
//
// "Unlike a supercomputer platform, clusters are usually shared by multiple
// applications. Thus, Opass may not greatly enhance the performance of
// parallel data requests due to the adjustment of HDFS. However, Opass
// allows the parallel data requests to be served in an optimized way as long
// as the cluster nodes have the capability to deliver data in the fashion of
// locality and balance."
//
// Two applications run concurrently on one 64-node cluster, each reading its
// own 320-chunk dataset. We compare all four scheduler combinations.
#include <cstdio>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "opass/opass.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace {

using namespace opass;

struct App {
  std::vector<runtime::Task> tasks;
  runtime::Assignment assignment;
};

}  // namespace

int main() {
  const std::uint32_t nodes = 64;
  const std::uint32_t chunks = 320;

  std::printf("Shared cluster (Section V-C1): two concurrent applications, %u nodes, "
              "%u chunks each\n\n",
              nodes, chunks);

  Table t({"app A", "app B", "A avg I/O (s)", "B avg I/O (s)", "A makespan", "B makespan",
           "cluster Jain"});

  for (int combo = 0; combo < 4; ++combo) {
    const bool a_opass = combo & 1;
    const bool b_opass = combo & 2;

    // Fresh identical environment per combo (seeded placement).
    dfs::NameNode nn(dfs::Topology::single_rack(nodes), 3, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng placement_rng(2020);
    App a, b;
    a.tasks = workload::make_single_data_workload(nn, chunks, policy, placement_rng);
    {
      const auto fid = nn.create_file("datasetB",
                                      static_cast<Bytes>(chunks) * nn.chunk_size(), policy,
                                      placement_rng);
      b.tasks = runtime::single_input_tasks(nn, {fid});
    }
    const auto placement = core::one_process_per_node(nn);
    Rng assign_rng(7);
    a.assignment = a_opass
                       ? core::plan({&nn, &a.tasks, &placement, &assign_rng}).assignment
                       : runtime::rank_interval_assignment(chunks, nodes);
    b.assignment = b_opass
                       ? core::plan({&nn, &b.tasks, &placement, &assign_rng}).assignment
                       : runtime::rank_interval_assignment(chunks, nodes);

    sim::Cluster cluster(nodes);
    runtime::StaticAssignmentSource sa(a.assignment), sb(b.assignment);
    Rng exec_rng(13);
    runtime::Execution job_a(cluster, nn, a.tasks, sa, exec_rng);
    runtime::Execution job_b(cluster, nn, b.tasks, sb, exec_rng);
    job_a.launch(0);
    job_b.launch(0);
    cluster.run();
    const runtime::ExecutionResult results[] = {job_a.take_result(), job_b.take_result()};

    std::vector<double> served;
    for (Bytes v : cluster.served_bytes()) served.push_back(to_mib(v));
    t.add_row({a_opass ? "opass" : "baseline", b_opass ? "opass" : "baseline",
               Table::num(summarize(results[0].trace.io_times()).mean, 2),
               Table::num(summarize(results[1].trace.io_times()).mean, 2),
               Table::num(results[0].makespan, 1), Table::num(results[1].makespan, 1),
               Table::num(jain_fairness(served), 3)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nTakeaways: (1) a baseline neighbour's remote traffic slows an Opass app\n"
              "below its solo ~0.9 s/read floor — the paper's \"may not greatly enhance\"\n"
              "caveat; (2) both apps on Opass restores near-floor I/O and perfect balance,\n"
              "because local reads never cross NICs at all.\n");
  return 0;
}
