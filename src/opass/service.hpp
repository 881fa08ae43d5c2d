// PlannerService: the session-based, multi-job planning API.
//
// The one-shot core::plan() facade answers one offline request; the ROADMAP
// north-star is a long-lived scheduler serving a *stream* of concurrent job
// arrivals over a shared cluster (the multi-job, locality-aware setting of
// PAPERS.md arXiv 2407.08584). PlannerService is that surface:
//
//   PlannerService service(nn, placement, options);
//   JobId a = service.submit({tasks_a, /*tenant=*/0, 1.0, /*arrival=*/0.0});
//   JobId b = service.submit({tasks_b, /*tenant=*/1, 2.0, /*arrival=*/0.0});
//   service.advance_to(5.0);          // plans every batch with arrival <= 5
//   service.complete(a);              // releases a's process capacity
//   service.drain();                  // flushes whatever is still queued
//
// Batching & coalescing. Submitted jobs wait in an AdmissionQueue ordered by
// (arrival, id). advance_to(t) repeatedly cuts the earliest ready batch: the
// queue head plus every job arriving within `batch_window` of it, merged
// into ONE flow solve over a shared FlowWorkspace — co-arriving jobs pay one
// graph build instead of one each.
//
// Capacity across batches. Per-process batch quotas are the incremental
// planner's batch-adjusted fair share (opass/incremental.hpp): each batch
// slot goes to the process with the least cumulative *active* load, so load
// stays balanced across batches, and complete()/cancel() subtract a job's
// load so later batches re-plan around freed capacity.
//
// Per-tenant fair share. When a batch mixes tenants, the batch's locality
// budget (the max-flow value L of the unconstrained solve) is split among
// its tenants by TenantAccounts::split_slots — weighted by the tenant's
// share weight against its cumulative locally-assigned bytes. The solve
// then runs over a tenant-layered Fig. 5 network
//
//     s -> tenant (fair cap) -> task (1) -> process (batch quota) -> t
//
// and a work-conserving top-up pass lifts the tenant caps to full demand so
// locality no tenant wants is never wasted. Tasks still unmatched fall to
// the random-fill pass against remaining process quota.
//
// Determinism contract. Virtual time only; the service owns a seeded Rng for
// the fill pass; queue order, tenant splits and network construction are all
// deterministic — the same submit/advance/cancel/complete sequence with the
// same seed reproduces every assignment and probe event byte-for-byte
// (ctest: service_determinism_test).
//
// Observability. The service is metric-blind (DESIGN.md §8): it emits job
// and batch events to an opass::Probe (common/probe.hpp), the batch itself
// in last_batch(); obs/timeline.hpp turns them into timeline series and
// obs/collect.hpp reduces counters() into a MetricsRegistry.
#pragma once

#include <cstdint>
#include <vector>

#include "common/probe.hpp"
#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "graph/max_flow.hpp"
#include "opass/admission.hpp"
#include "opass/process_index.hpp"
#include "opass/planner.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// Per-tenant slice of one planned batch.
struct TenantBatchShare {
  TenantId tenant = 0;
  std::uint32_t tasks = 0;            ///< batch tasks belonging to the tenant
  std::uint32_t fair_slots = 0;       ///< locality slots granted by the split
  std::uint32_t locally_matched = 0;  ///< local placements actually won
  Bytes local_bytes = 0;              ///< bytes of those placements
};

/// Summary of one planned batch (PlannerService::last_batch()).
struct BatchReport {
  std::uint32_t batch = 0;     ///< 1-based sequence number
  Seconds planned_at = 0;      ///< batch cut time
  std::uint32_t jobs = 0;
  std::uint32_t tasks = 0;
  std::uint32_t locally_matched = 0;
  std::uint32_t randomly_filled = 0;
  std::uint32_t queue_depth_after = 0;  ///< jobs still queued after the cut
  std::vector<TenantBatchShare> tenants;  ///< in first-appearance order
};

/// Monotone counters of a service's lifetime (collect_service() input).
struct ServiceCounters {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_planned = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t tasks_planned = 0;
  std::uint64_t locally_matched = 0;
  std::uint64_t randomly_filled = 0;
  std::uint32_t batches = 0;
  std::uint32_t max_batch_tasks = 0;  ///< largest merged solve so far
  std::uint32_t max_queue_depth = 0;
};

/// Long-lived, deterministic multi-job planner (see file comment).
class PlannerService {
 public:
  /// The NameNode must outlive the service; the placement is copied.
  /// Process capacity follows the paper's deployment: one planning slot
  /// stream per placement entry.
  PlannerService(const dfs::NameNode& nn, ProcessPlacement placement,
                 ServiceOptions options = {});

  /// Admit a job (tasks are moved in). Requires single-input tasks and
  /// `request.arrival >= now()`. Returns the job's handle.
  JobId submit(JobRequest request);

  /// Withdraw a job. Queued jobs leave the admission queue unplanned;
  /// planned jobs release their process load and refund their tenant's
  /// locality charge, so later batches re-plan around the freed capacity.
  /// Returns false when the job is already completed or cancelled.
  bool cancel(JobId id);

  /// Mark a planned job as finished executing: its process load is released
  /// (capacity for future batches) while its tenant charge stays (fairness
  /// is over cumulative service, not open jobs). Returns false unless the
  /// job is currently planned.
  bool complete(JobId id);

  /// Advance virtual time to `t` (monotone), planning every batch whose cut
  /// falls at or before `t`.
  void advance_to(Seconds t);

  /// Plan everything still queued, advancing time to the last batch cut.
  void drain();

  /// Status of a job (any state). `id` must have been issued by submit().
  const JobStatus& status(JobId id) const;

  Seconds now() const { return now_; }
  std::uint64_t job_count() const { return jobs_.size(); }
  std::uint32_t queue_depth() const { return static_cast<std::uint32_t>(queue_.depth()); }
  const ServiceCounters& counters() const { return counters_; }
  const TenantAccounts& tenants() const { return tenants_; }

  /// Cumulative *active* tasks per process (planned minus completed or
  /// cancelled) — the load the next batch's quotas balance against.
  const std::vector<std::uint32_t>& process_load() const { return load_; }

  /// The most recently planned batch (a default report before the first).
  const BatchReport& last_batch() const { return last_batch_; }

  /// Attach (or with nullptr, detach) the probe for kJobQueued,
  /// kJobCancelled and kBatchPlanned events. Borrowed; may be null.
  void set_probe(Probe* probe) { probe_ = probe; }

 private:
  struct Job {
    JobStatus status;
    std::vector<std::uint32_t> process_tasks;  ///< per-process task counts
  };

  void plan_batch(std::vector<PendingJob> batch, Seconds cut);

  const dfs::NameNode& nn_;
  ProcessPlacement placement_;
  Adjacency procs_on_node_;  ///< processes_by_node(), built once
  ServiceOptions options_;
  Rng rng_;
  graph::FlowWorkspace workspace_;  ///< reused across batches
  AdmissionQueue queue_;
  TenantAccounts tenants_;
  std::vector<Job> jobs_;  ///< indexed by JobId - 1
  std::vector<std::uint32_t> load_;
  ServiceCounters counters_;
  BatchReport last_batch_;
  Probe* probe_ = nullptr;
  Seconds now_ = 0;
};

}  // namespace opass::core
