#include "obs/analytics.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "exp/experiment.hpp"

namespace opass::obs {
namespace {

TEST(ImbalanceStats, UniformSamplesAreBalanced) {
  const ImbalanceStats s = imbalance_stats({5, 5, 5, 5});
  EXPECT_DOUBLE_EQ(s.degree_of_imbalance, 0.0);
  EXPECT_DOUBLE_EQ(s.cv, 0.0);
  EXPECT_DOUBLE_EQ(s.gini, 0.0);
  EXPECT_DOUBLE_EQ(s.peak_over_mean, 1.0);
}

TEST(ImbalanceStats, KnownSkewedSample) {
  // mean = 2, max = 5: DoI = 1.5, peak/mean = 2.5.
  const ImbalanceStats s = imbalance_stats({1, 1, 1, 5});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.degree_of_imbalance, 1.5);
  EXPECT_DOUBLE_EQ(s.peak_over_mean, 2.5);
  // Gini via the rank formula: 2*(1*1+2*1+3*1+4*5)/(4*8) - 5/4 = 0.375.
  EXPECT_DOUBLE_EQ(s.gini, 0.375);
  EXPECT_GT(s.cv, 0.0);
}

TEST(ImbalanceStats, DegenerateInputs) {
  EXPECT_EQ(imbalance_stats({}).count, 0u);
  EXPECT_DOUBLE_EQ(imbalance_stats({}).gini, 0.0);
  const ImbalanceStats zeros = imbalance_stats({0, 0, 0});
  EXPECT_DOUBLE_EQ(zeros.degree_of_imbalance, 0.0);
  EXPECT_DOUBLE_EQ(zeros.gini, 0.0);
  EXPECT_DOUBLE_EQ(zeros.peak_over_mean, 0.0);
}

TEST(ImbalanceStats, GiniGrowsWithConcentration) {
  const double even = imbalance_stats({3, 3, 3, 3}).gini;
  const double mild = imbalance_stats({2, 3, 3, 4}).gini;
  const double harsh = imbalance_stats({0, 0, 0, 12}).gini;
  EXPECT_LT(even, mild);
  EXPECT_LT(mild, harsh);
  EXPECT_LT(harsh, 1.0);
}

/// Hand-built execution: 4 nodes, 4 processes; node/process 3 finishes far
/// behind the rest because of two slow chunk reads.
runtime::ExecutionResult straggling_run() {
  runtime::ExecutionResult exec;
  const auto add = [&exec](std::uint32_t process, dfs::NodeId node, dfs::ChunkId chunk,
                           Seconds issue, Seconds end) {
    sim::ReadRecord r;
    r.process = process;
    r.reader_node = process;
    r.serving_node = node;
    r.chunk = chunk;
    r.bytes = 100;
    r.issue_time = issue;
    r.end_time = end;
    exec.trace.add(r);
  };
  for (std::uint32_t p = 0; p < 3; ++p) add(p, p, p, 0.0, 1.0 + 0.01 * p);
  add(3, 3, 10, 0.0, 6.0);   // the convoy read
  add(3, 3, 11, 6.0, 10.0);  // the slowest read
  add(3, 3, 12, 10.0, 10.5);
  exec.process_finish_time = {1.0, 1.01, 1.02, 10.5};
  exec.makespan = 10.5;
  return exec;
}

TEST(Stragglers, DetectsTheLaggingNodeWithCausalChunks) {
  const ExecutionAnalytics a = analyze_execution(straggling_run(), /*node_count=*/4);
  ASSERT_EQ(a.straggler_nodes.size(), 1u);
  EXPECT_EQ(a.straggler_nodes[0].id, 3u);
  EXPECT_DOUBLE_EQ(a.straggler_nodes[0].finish, 10.5);
  // Causal chunks sorted by descending I/O time: 10 (6 s), 11 (4 s), 12 (0.5 s).
  EXPECT_EQ(a.straggler_nodes[0].causal_chunks,
            (std::vector<dfs::ChunkId>{10, 11, 12}));
  ASSERT_EQ(a.straggler_processes.size(), 1u);
  EXPECT_EQ(a.straggler_processes[0].id, 3u);
}

TEST(Stragglers, CausalChunkListIsCapped) {
  // Node 3 serves four more reads after its three in straggling_run(), each
  // shorter than the last (0.4 s down to 0.1 s): only its five slowest of
  // seven are named.
  runtime::ExecutionResult exec = straggling_run();
  for (dfs::ChunkId chunk = 13; chunk < 17; ++chunk) {
    sim::ReadRecord r;
    r.process = 3;
    r.reader_node = 3;
    r.serving_node = 3;
    r.chunk = chunk;
    r.bytes = 100;
    r.issue_time = 10.5;
    r.end_time = 10.5 + 0.1 * (17 - chunk);
    exec.trace.add(r);
  }
  exec.process_finish_time[3] = 10.9;
  const ExecutionAnalytics a = analyze_execution(exec, 4);
  ASSERT_EQ(a.straggler_nodes.size(), 1u);
  EXPECT_EQ(a.straggler_nodes[0].causal_chunks,
            (std::vector<dfs::ChunkId>{10, 11, 12, 13, 14}));
  ASSERT_EQ(a.straggler_processes.size(), 1u);
  EXPECT_EQ(a.straggler_processes[0].causal_chunks, a.straggler_nodes[0].causal_chunks);
}

TEST(Analytics, OpassBeatsTheBaselineOnImbalance) {
  // The acceptance property of the report pipeline: on the default scenario
  // Opass's serve-byte degree of imbalance is strictly lower.
  const auto analyze = [](exp::Method method) {
    exp::ExperimentConfig cfg;
    cfg.nodes = 16;
    cfg.seed = 42;
    runtime::ExecutionResult raw;
    cfg.raw = &raw;
    exp::run_single_data(cfg, /*chunk_count=*/80, method);
    return analyze_execution(raw, cfg.nodes);
  };
  const ExecutionAnalytics baseline = analyze(exp::Method::kBaseline);
  const ExecutionAnalytics opass = analyze(exp::Method::kOpass);
  EXPECT_LT(opass.serve_bytes.degree_of_imbalance,
            baseline.serve_bytes.degree_of_imbalance);
  EXPECT_LT(opass.serve_bytes.gini, baseline.serve_bytes.gini);
}

}  // namespace
}  // namespace opass::obs
