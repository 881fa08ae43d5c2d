// Execution traces: one record per chunk-read operation, mirroring the
// instrumentation the paper used ("we record the I/O time taken to read each
// chunk file" and "a monitor to record the amount of data served by each
// storage node").
//
// The recorder is the ground truth every observability surface derives from:
// the figure series below, the obs::MetricsRegistry collectors
// (obs/collect.hpp), the Chrome trace-event exporter (obs/chrome_trace.hpp)
// and the per-node hotspot report (obs/hotspot.hpp) all reduce the same
// ReadRecord vector. Records are appended in completion order by the
// executor; because the simulator is deterministic under a fixed seed, the
// record sequence — and therefore everything derived from it — replays
// byte-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "dfs/types.hpp"

namespace opass::sim {

/// One completed read operation: who asked, who served, how much, and when.
/// `issue_time`/`end_time` are virtual (simulated) seconds from the cluster
/// clock; `io_time()` is the paper's per-chunk "I/O time" (request to last
/// byte, including positioning latency and any admission-queue wait). The
/// flag sits with the 32-bit ids, so a record is 48 bytes.
struct ReadRecord {
  std::uint32_t process = 0;      ///< issuing process rank
  dfs::NodeId reader_node = 0;    ///< node the process runs on
  dfs::NodeId serving_node = 0;   ///< node that served the data
  dfs::ChunkId chunk = 0;         ///< chunk that was read
  /// Task the read fed (runtime::TaskId; UINT32_MAX when the issuer is not
  /// task-structured). Lets the causal span log nest reads under their task
  /// without guessing from time windows (which prefetch overlap would break).
  std::uint32_t task = 0xffffffffu;
  bool local = false;             ///< served from the reader's own node
  Bytes bytes = 0;                ///< payload size of the read
  Seconds issue_time = 0;         ///< when the request was issued
  Seconds end_time = 0;           ///< when the last byte arrived

  /// Wall-clock (virtual) duration of the operation.
  Seconds io_time() const { return end_time - issue_time; }
};

/// Collects ReadRecords and derives the per-figure series. Append-only;
/// derivations are pure functions of the record vector, so the recorder can
/// be reduced repeatedly (and by several exporters) without interference.
class TraceRecorder {
 public:
  /// Append one completed read. Records arrive in completion order.
  void add(const ReadRecord& r) { records_.push_back(r); }

  /// Make room for `n` records in one allocation.
  void reserve(std::size_t n) { records_.reserve(n); }

  /// All records, in the order they were added.
  const std::vector<ReadRecord>& records() const { return records_; }

  /// Number of recorded reads.
  std::size_t size() const { return records_.size(); }

  /// Per-op I/O times in completion order (Fig. 7(c) / 9 / 11 / 12 series).
  std::vector<double> io_times() const;

  /// Per-op I/O times ordered by issue time.
  std::vector<double> io_times_by_issue() const;

  /// Bytes served by each node (Fig. 1(a) / 8 / 10 series) — the paper's
  /// serve-imbalance signal. `node_count` sizes the result; every record
  /// must reference a node below it.
  std::vector<Bytes> bytes_served_per_node(std::uint32_t node_count) const;

  /// Chunk-request count served by each node.
  std::vector<std::uint32_t> ops_served_per_node(std::uint32_t node_count) const;

  /// Fraction of operations served locally, in [0, 1]; 0 when empty.
  double local_fraction() const;

  /// Completion time of the last operation (parallel makespan).
  Seconds makespan() const;

 private:
  std::vector<ReadRecord> records_;
};

}  // namespace opass::sim
