// Job-arrival trace replay through the planning service.
//
// A service trace is a tiny text format describing a stream of job arrivals:
//
//   # arrival_seconds tenant_id weight task_count
//   0.0 0 1.0 32
//   0.5 1 2.0 16
//
// replay_service_trace() stands up an HDFS-model namespace (same seeded
// construction as the experiment harness), submits every trace job to a
// core::PlannerService, drains it, and reduces the outcome: per-job
// statuses, lifetime counters, and a deterministic text rendering of every
// assignment — the byte-identity witness the determinism suite and
// `opass_cli --service-trace` compare across runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "dfs/placement.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "obs/timeline.hpp"
#include "opass/service.hpp"

namespace opass::exp {

/// One job arrival parsed from a trace line.
struct TraceJob {
  Seconds arrival = 0;
  core::TenantId tenant = 0;
  double weight = 1.0;
  std::uint32_t task_count = 0;
};

/// Parse trace text: one job per line, fields "<arrival> <tenant> <weight>
/// <task_count>" separated by whitespace; blank lines and lines starting
/// with '#' are skipped. Throws std::invalid_argument on malformed lines.
std::vector<TraceJob> parse_service_trace(const std::string& text);

/// Read and parse a trace file; throws std::invalid_argument when the file
/// cannot be read.
std::vector<TraceJob> load_service_trace(const std::string& path);

/// Replay knobs (the experiment-harness subset that matters to planning —
/// no cluster simulation is involved).
struct ServiceTraceConfig {
  std::uint32_t nodes = 64;
  std::uint32_t replication = 3;
  std::uint64_t seed = 42;
  dfs::PlacementKind placement = dfs::PlacementKind::kRandom;
  Seconds batch_window = 0;  ///< coalescing window; no job or task cap per batch
  bool fair_share = true;
  /// Optional sinks (borrowed). `metrics` receives collect_service();
  /// `timeline` receives an obs::ServiceTimelineProbe's series and is
  /// finish()ed at the drain time.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TimelineRecorder* timeline = nullptr;
  /// When set, the replay appends svc.job.queue / svc.job.plan spans for
  /// every planned job (obs::append_service_spans) — queue-wait attribution
  /// keyed by tenant.
  obs::SpanLog* spans = nullptr;
};

/// Reduced outcome of one replay.
struct ServiceTraceOutput {
  std::vector<core::JobStatus> statuses;  ///< in job-id order
  core::ServiceCounters counters;
  double local_byte_fraction = 0;  ///< co-located bytes / total bytes
  /// Deterministic text rendering of every job's state and assignment
  /// (stable field order, obs::format_double for reals). Two replays of the
  /// same trace + seed produce byte-identical strings.
  std::string rendered;
};

/// Replay `jobs` through a PlannerService over a fresh seeded namespace:
/// one shared dataset with one chunk per trace task, jobs submitted in file
/// order, then drained. Tenant ids must be dense when `cfg.timeline` is set
/// (the probe registers per-tenant series up front).
ServiceTraceOutput replay_service_trace(const ServiceTraceConfig& cfg,
                                        const std::vector<TraceJob>& jobs);

}  // namespace opass::exp
