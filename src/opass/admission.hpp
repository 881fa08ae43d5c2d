// Admission control for the planning service: the arrival queue and the
// per-tenant fair-share ledger.
//
// PlannerService (opass/service.hpp) answers a *stream* of job arrivals over
// a shared cluster. Two policy pieces are factored out here so they can be
// unit-tested without standing up a namespace or running a flow solve:
//
//  * AdmissionQueue — pending jobs ordered by (arrival, job id), popped as
//    *batches*: co-arriving jobs (arrivals within a coalescing window of
//    the batch head) coalesce into one entry so the service can merge them
//    into a single flow solve. Cancellation removes a job mid-queue.
//  * TenantAccounts — cumulative locally-assigned bytes per tenant, weighted
//    by the tenant's share weight. The service uses the ledger to split a
//    batch's locality budget: slots are granted one at a time to the tenant
//    with the smallest normalized usage (charged bytes / weight), so over
//    time each tenant's local-byte share converges to its weight share —
//    the spirit of proportional storage allocations (PAPERS.md
//    arXiv 1808.07545) applied to the locality budget.
//
// Everything here is deterministic: ties break on ids, iteration follows
// insertion order, and no wall clock or unseeded randomness is involved.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "opass/planner.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// One queued job: the id assigned at submit plus the caller's request.
struct PendingJob {
  JobId id = 0;
  JobRequest request;
};

/// Deterministic arrival queue with batch coalescing (see file comment).
class AdmissionQueue {
 public:
  /// Enqueue a job. Order is (arrival, id): a job submitted later but with
  /// an earlier arrival time sorts ahead, and co-arrivals keep submit order
  /// because ids are monotone.
  void push(PendingJob job);

  /// Remove a queued job by id. Returns false when no such job is queued.
  bool cancel(JobId id);

  /// True when a batch is ready at virtual time `now` (head arrival <= now).
  bool batch_ready(Seconds now) const;

  /// Pop the next batch: the head job plus every following job whose arrival
  /// falls within `window` virtual seconds of the head's arrival (0 = only
  /// exact co-arrivals) and at or before `now`. Requires batch_ready(now).
  std::vector<PendingJob> pop_batch(Seconds now, Seconds window);

  std::size_t depth() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

  /// Arrival time of the queue head; requires !empty().
  Seconds next_arrival() const;

 private:
  // Sorted by (arrival, id); head at front. Batch pops consume a prefix, so
  // a vector with ordered insertion keeps pops O(batch) amortized.
  std::vector<PendingJob> queue_;
};

/// Weighted per-tenant usage ledger (see file comment). Tenants register on
/// first touch; a tenant's weight is fixed by its first registration.
class TenantAccounts {
 public:
  /// Register `tenant` with `weight` (> 0) on first touch; later touches
  /// must agree on the weight (OPASS_REQUIRE).
  void touch(TenantId tenant, double weight);

  /// Add locally-assigned bytes to a tenant's ledger.
  void charge(TenantId tenant, Bytes local_bytes);

  /// Remove previously charged bytes (job cancelled after planning).
  void refund(TenantId tenant, Bytes local_bytes);

  bool known(TenantId tenant) const;
  double weight(TenantId tenant) const;
  Bytes charged(TenantId tenant) const;

  /// Charged bytes divided by weight — the fair-share comparison key.
  double normalized_usage(TenantId tenant) const;

  /// Tenants in first-touch order.
  const std::vector<TenantId>& tenants() const { return order_; }

  /// Split `slots` locality slots among `tenants` (distinct, registered):
  /// grant one slot at a time to the tenant with the smallest projected
  /// normalized usage (ledger bytes + granted slots * `bytes_per_slot`,
  /// divided by weight), never exceeding the tenant's `demand`; ties break
  /// on tenant id. Returns per-tenant grants aligned with `tenants`. The
  /// grand total is min(slots, sum of demands).
  std::vector<std::uint32_t> split_slots(std::uint32_t slots,
                                         const std::vector<TenantId>& tenant_ids,
                                         const std::vector<std::uint32_t>& demand,
                                         Bytes bytes_per_slot) const;

 private:
  std::size_t index_of(TenantId tenant) const;

  std::vector<TenantId> order_;
  std::vector<double> weights_;
  std::vector<Bytes> charged_;
};

}  // namespace opass::core
