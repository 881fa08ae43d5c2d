// Collectors: reduce finished runs into MetricsRegistry entries.
//
// Each collector walks one subsystem's observable state (an execution's
// trace and spans, the cluster's resource accounting, a planner result, the
// dynamic scheduler's counters) and registers metrics under a caller-chosen
// name prefix — so a `--method=both` comparison can collect the same run
// shape twice under "baseline." and "opass." without collision.
//
// Naming scheme (the taxonomy DESIGN.md documents):
//   <prefix>.makespan_s, <prefix>.reads_total, <prefix>.bytes_local, ...
//   <prefix>.node.<i>.bytes_served      per-node series
//   <prefix>.process.<p>.finish_s      per-process series
//   <prefix>.io_time_s                 fixed-bucket histogram
//
// Everything registered here is deterministic except the planner wall
// timings, which collect_plan() tags Determinism::kWallClock.
#pragma once

#include <string>

#include "opass/dynamic_scheduler.hpp"
#include "opass/planner.hpp"
#include "opass/service.hpp"
#include "runtime/executor.hpp"
#include "sim/cluster.hpp"
#include "obs/metrics.hpp"

namespace opass::obs {

/// Bucket bounds (seconds) of the per-read I/O-time histogram, spanning
/// sub-second local reads up to heavily queued remote reads.
const std::vector<double>& io_time_bounds();

/// Reduce one execution: totals (reads, bytes, local/remote split), the
/// makespan, the per-read I/O-time histogram, per-node served bytes/ops and
/// per-process finish times (each followed by a `stall_s` gauge of 0).
/// `node_count` sizes the per-node series.
void collect_execution(MetricsRegistry& registry, const runtime::ExecutionResult& result,
                       std::uint32_t node_count, const std::string& prefix = "executor");

/// Reduce the cluster's resource accounting: per-node disk busy seconds,
/// peak concurrent transfers, head-thrash degradation joins and admission
/// queue statistics.
void collect_cluster(MetricsRegistry& registry, const sim::Cluster& cluster,
                     const std::string& prefix = "cluster");

/// Reduce a planner result: match/fill counters, locality byte counts, and
/// the facade's wall timings (tagged wall-clock, excluded from deterministic
/// exports).
void collect_plan(MetricsRegistry& registry, const core::PlanResult& plan,
                  const std::string& prefix = "planner");

/// Reduce the dynamic scheduler's dispatch counters: guideline-list hits,
/// steals and the steal locality hit rate.
void collect_dynamic(MetricsRegistry& registry, const core::OpassDynamicSource& source,
                     const std::string& prefix = "dynamic");

/// Reduce a planning service's lifetime counters: job/task totals, the
/// match-vs-fill split, batch shape extremes, and each tenant's weight and
/// cumulative charged locality bytes.
void collect_service(MetricsRegistry& registry, const core::PlannerService& service,
                     const std::string& prefix = "service");

}  // namespace opass::obs
