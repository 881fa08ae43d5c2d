#include "obs/analytics.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/stats.hpp"

namespace opass::obs {

namespace {

constexpr double kStragglerLagFactor = 1.2;  ///< straggler bar, times the p90 finish
constexpr std::size_t kMaxCausalChunks = 5;  ///< slowest reads kept per straggler

/// Stragglers over one finish-time vector. `chunks_of(id)` returns the
/// element's (io_time, chunk) pairs; the slowest kMaxCausalChunks survive.
template <typename ChunksOf>
std::vector<Straggler> find_stragglers(const std::vector<double>& finish, double p90,
                                       ChunksOf&& chunks_of) {
  std::vector<Straggler> out;
  const double bar = kStragglerLagFactor * p90;
  for (std::uint32_t id = 0; id < finish.size(); ++id) {
    if (!(finish[id] > bar)) continue;
    Straggler s;
    s.id = id;
    s.finish = finish[id];
    s.threshold = bar;
    std::vector<std::pair<double, dfs::ChunkId>> reads = chunks_of(id);
    std::sort(reads.begin(), reads.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;  // slowest first
      return a.second < b.second;
    });
    if (reads.size() > kMaxCausalChunks) reads.resize(kMaxCausalChunks);
    s.causal_chunks.reserve(reads.size());
    for (const auto& [io, chunk] : reads) s.causal_chunks.push_back(chunk);
    out.push_back(std::move(s));
  }
  return out;
}

double p90_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, 0.90);
}

}  // namespace

ImbalanceStats imbalance_stats(const std::vector<double>& samples) {
  ImbalanceStats out;
  out.count = samples.size();
  if (samples.empty()) return out;
  const Summary s = summarize(samples);
  out.mean = s.mean;
  out.max = s.max;
  if (s.mean > 0) {
    out.degree_of_imbalance = (s.max - s.mean) / s.mean;
    out.cv = s.stddev / s.mean;
    out.peak_over_mean = s.max / s.mean;
  }
  // Gini over the sorted sample: G = (2 * sum_i i*x_i) / (n * sum) - (n+1)/n
  // with 1-based ranks i. Exact for our small n; 0 for a zero-sum sample.
  if (s.sum > 0) {
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    double weighted = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i)
      weighted += static_cast<double>(i + 1) * sorted[i];
    const double n = static_cast<double>(sorted.size());
    out.gini = std::max(0.0, 2.0 * weighted / (n * s.sum) - (n + 1.0) / n);
  }
  return out;
}

ExecutionAnalytics analyze_execution(const runtime::ExecutionResult& result,
                                     std::uint32_t node_count) {
  ExecutionAnalytics out;

  const std::vector<sim::ReadRecord>& records = result.trace.records();
  std::vector<double> served(node_count, 0);
  std::vector<double> node_finish(node_count, 0);
  for (const sim::ReadRecord& r : records) {
    OPASS_REQUIRE(r.serving_node < node_count, "trace references node out of range");
    served[r.serving_node] += static_cast<double>(r.bytes);
    node_finish[r.serving_node] = std::max(node_finish[r.serving_node], r.end_time);
  }
  out.serve_bytes = imbalance_stats(served);

  std::vector<double> process_finish(result.process_finish_time.begin(),
                                     result.process_finish_time.end());
  out.process_finish = imbalance_stats(process_finish);

  out.node_finish_p90 = p90_of(node_finish);
  out.process_finish_p90 = p90_of(process_finish);

  out.straggler_nodes = find_stragglers(
      node_finish, out.node_finish_p90, [&](std::uint32_t node) {
        std::vector<std::pair<double, dfs::ChunkId>> reads;
        for (const sim::ReadRecord& r : records)
          if (r.serving_node == node) reads.emplace_back(r.io_time(), r.chunk);
        return reads;
      });
  out.straggler_processes = find_stragglers(
      process_finish, out.process_finish_p90, [&](std::uint32_t process) {
        std::vector<std::pair<double, dfs::ChunkId>> reads;
        for (const sim::ReadRecord& r : records)
          if (r.process == process) reads.emplace_back(r.io_time(), r.chunk);
        return reads;
      });
  return out;
}

}  // namespace opass::obs
