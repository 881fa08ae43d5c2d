// Imbalance analytics: reduce a finished execution to the paper's Section III
// quantities.
//
// The paper's core measurement is the skew of parallel data access — "the
// amounts of data served by different nodes vary greatly" — and its knock-on
// effect on process finish times. This module turns one ExecutionResult into:
//
//   * dispersion measures over any non-negative sample vector (per-node
//     served bytes, per-process finish times): degree of imbalance
//     (max - mean) / mean, coefficient of variation, Gini coefficient and
//     peak-over-mean ratio;
//   * a straggler detector: nodes / processes whose finish time exceeds
//     1.2 times the p90 finish, each with the causal chunk list (its five
//     slowest reads) that explains *why* it lagged.
//
// Everything here is a pure function of the trace, so analytics inherit the
// byte-determinism of the recorder; report.hpp embeds them in the HTML/JSON
// artifacts.
#pragma once

#include <cstdint>
#include <vector>

#include "dfs/types.hpp"
#include "runtime/executor.hpp"

namespace opass::obs {

/// Dispersion of one non-negative sample vector.
struct ImbalanceStats {
  std::size_t count = 0;
  double mean = 0;
  double max = 0;
  /// (max - mean) / mean, the load-balancing literature's degree of
  /// imbalance: 0 = perfectly even, 1 = the hottest element carries twice
  /// the average. 0 when mean == 0.
  double degree_of_imbalance = 0;
  double cv = 0;    ///< coefficient of variation (stddev / mean)
  double gini = 0;  ///< Gini coefficient in [0, 1); 0 = perfectly even
  /// max / mean (>= 1 for non-empty samples); 0 when mean == 0.
  double peak_over_mean = 0;
};

/// Compute ImbalanceStats. Empty input yields a zeroed result.
ImbalanceStats imbalance_stats(const std::vector<double>& samples);

/// One lagging node or process: its finish time exceeds 1.2 × the p90 of
/// its kind's finish times.
struct Straggler {
  std::uint32_t id = 0;     ///< node id or process rank
  Seconds finish = 0;       ///< its last activity (serve / drain) time
  Seconds threshold = 0;    ///< the 1.2 × p90 bar it exceeded
  /// The element's five slowest chunk reads (fewer if it has fewer) —
  /// served by the node, or issued by the process — ordered by descending
  /// I/O time (chunk id breaks ties).
  std::vector<dfs::ChunkId> causal_chunks;
};

/// Full analytics of one execution.
struct ExecutionAnalytics {
  ImbalanceStats serve_bytes;     ///< over per-node served bytes
  ImbalanceStats process_finish;  ///< over per-process finish times
  Seconds node_finish_p90 = 0;    ///< p90 of per-node last-serve times
  Seconds process_finish_p90 = 0;
  std::vector<Straggler> straggler_nodes;      ///< ascending node id
  std::vector<Straggler> straggler_processes;  ///< ascending process rank
};

/// Reduce one finished execution. `node_count` sizes the per-node series;
/// every trace record must reference a node below it.
ExecutionAnalytics analyze_execution(const runtime::ExecutionResult& result,
                                     std::uint32_t node_count);

}  // namespace opass::obs
