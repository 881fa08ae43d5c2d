// PlannerService behaviour: admission order and batching, per-tenant fair
// share, cancellation (queued and planned), completion, and the edge cases
// of empty jobs and empty advances.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "opass/service.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

struct ServiceFixture : ::testing::Test {
  ServiceFixture() : nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize), rng(11) {
    all_tasks = workload::make_single_data_workload(nn, 80, policy, rng);
    placement = one_process_per_node(nn);
  }

  JobRequest job(std::uint32_t from, std::uint32_t count, TenantId tenant = 0,
                 double weight = 1.0, Seconds arrival = 0) const {
    JobRequest request;
    request.tasks = {all_tasks.begin() + from, all_tasks.begin() + from + count};
    request.tenant = tenant;
    request.weight = weight;
    request.arrival = arrival;
    return request;
  }

  static std::set<runtime::TaskId> assigned_ids(const JobStatus& status) {
    std::set<runtime::TaskId> ids;
    for (const auto& list : status.assignment)
      for (auto t : list) EXPECT_TRUE(ids.insert(t).second) << "task assigned twice";
    return ids;
  }

  dfs::NameNode nn;
  dfs::RandomPlacement policy;
  Rng rng;
  std::vector<runtime::Task> all_tasks;
  ProcessPlacement placement;
};

/// Captures every BatchReport the service plans.
struct RecordingProbe : Probe {
  explicit RecordingProbe(const PlannerService& planner) : service(planner) {}

  void on_event(const ProbeEvent& event) override {
    switch (event.kind) {
      case ProbeKind::kJobQueued:
        max_depth = std::max(max_depth, event.count);
        return;
      case ProbeKind::kJobCancelled:
        ++cancelled;
        return;
      case ProbeKind::kBatchPlanned:
        EXPECT_EQ(event.id, service.last_batch().batch);
        EXPECT_EQ(event.count, service.last_batch().queue_depth_after);
        reports.push_back(service.last_batch());
        return;
      default:
        ADD_FAILURE() << "unexpected probe event";
        return;
    }
  }

  const PlannerService& service;
  std::vector<BatchReport> reports;
  std::uint32_t max_depth = 0;
  std::uint32_t cancelled = 0;
};

TEST_F(ServiceFixture, AdvancePlansCoArrivalsAsOneBatch) {
  PlannerService service(nn, placement);
  const JobId a = service.submit(job(0, 16));
  const JobId b = service.submit(job(16, 16));
  const JobId c = service.submit(job(32, 16, 0, 1.0, /*arrival=*/1.0));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(c, 3u);
  EXPECT_EQ(service.queue_depth(), 3u);
  EXPECT_EQ(service.status(a).state, JobState::kQueued);

  service.advance_to(0.5);  // window 0: the two co-arrivals merge, c waits
  EXPECT_EQ(service.now(), 0.5);
  EXPECT_EQ(service.status(a).batch, 1u);
  EXPECT_EQ(service.status(b).batch, 1u);
  EXPECT_EQ(service.status(a).state, JobState::kPlanned);
  EXPECT_EQ(service.status(a).planned_at, 0.0);
  EXPECT_EQ(service.status(c).state, JobState::kQueued);
  EXPECT_EQ(service.queue_depth(), 1u);

  service.advance_to(1.0);
  EXPECT_EQ(service.status(c).batch, 2u);
  EXPECT_EQ(service.counters().batches, 2u);
  EXPECT_EQ(service.counters().jobs_planned, 3u);
  EXPECT_EQ(service.counters().tasks_planned, 48u);

  // Each job's assignment holds exactly its own task ids.
  std::set<runtime::TaskId> want;
  for (std::uint32_t t = 0; t < 16; ++t) want.insert(t);
  EXPECT_EQ(assigned_ids(service.status(a)), want);
}

TEST_F(ServiceFixture, BatchWindowCoalescesAcrossArrivals) {
  ServiceOptions options;
  options.batch_window = 1.0;
  PlannerService service(nn, placement, options);
  (void)service.submit(job(0, 8, 0, 1.0, 0.0));
  (void)service.submit(job(8, 8, 0, 1.0, 0.6));
  (void)service.submit(job(16, 8, 0, 1.0, 2.5));
  service.drain();
  EXPECT_EQ(service.counters().batches, 2u);
  EXPECT_EQ(service.status(1).batch, service.status(2).batch);
  EXPECT_EQ(service.status(3).batch, 2u);
  // The batch cut happens at head arrival + window, and time follows it.
  EXPECT_EQ(service.status(1).planned_at, 1.0);
  EXPECT_EQ(service.status(3).planned_at, 3.5);
  EXPECT_EQ(service.now(), 3.5);
}

TEST_F(ServiceFixture, FairShareSplitsTheLocalityBudgetByWeight) {
  // Two processes on an 8-node, replication-1 namespace: locality is scarce,
  // so the fair-share split decides who gets it.
  dfs::NameNode scarce(dfs::Topology::single_rack(8), 1, kDefaultChunkSize);
  Rng r(17);
  const auto tasks = workload::make_single_data_workload(scarce, 24, policy, r);

  ServiceOptions options;
  options.seed = 5;
  PlannerService service(scarce, {0, 1}, options);
  RecordingProbe probe(service);
  service.set_probe(&probe);

  JobRequest light, heavy;
  light.tasks = {tasks.begin(), tasks.begin() + 12};
  light.tenant = 0;
  light.weight = 1.0;
  heavy.tasks = {tasks.begin() + 12, tasks.end()};
  heavy.tenant = 1;
  heavy.weight = 2.0;
  (void)service.submit(std::move(light));
  (void)service.submit(std::move(heavy));
  service.drain();

  ASSERT_EQ(probe.reports.size(), 1u);
  const BatchReport& report = probe.reports[0];
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].tenant, 0u);  // first-appearance order
  EXPECT_EQ(report.tenants[1].tenant, 1u);
  EXPECT_EQ(report.tenants[0].tasks, 12u);
  EXPECT_EQ(report.tenants[1].tasks, 12u);
  // Equal demand and zero usage: the heavier tenant never receives fewer
  // locality slots than the lighter one.
  EXPECT_GE(report.tenants[1].fair_slots, report.tenants[0].fair_slots);
  EXPECT_GT(report.locally_matched, 0u);
  EXPECT_EQ(report.tenants[0].locally_matched + report.tenants[1].locally_matched,
            report.locally_matched);
  EXPECT_EQ(report.locally_matched + report.randomly_filled, 24u);

  // The ledger records the weights and charges local bytes per tenant.
  EXPECT_EQ(service.tenants().weight(0), 1.0);
  EXPECT_EQ(service.tenants().weight(1), 2.0);
  EXPECT_EQ(service.tenants().charged(0), service.status(1).local_bytes);
  EXPECT_EQ(service.tenants().charged(1), service.status(2).local_bytes);
}

TEST_F(ServiceFixture, CancelMidQueueSkipsPlanning) {
  PlannerService service(nn, placement);
  RecordingProbe probe(service);
  service.set_probe(&probe);
  (void)service.submit(job(0, 8));
  const JobId doomed = service.submit(job(8, 8));
  (void)service.submit(job(16, 8));

  EXPECT_TRUE(service.cancel(doomed));
  EXPECT_EQ(service.status(doomed).state, JobState::kCancelled);
  EXPECT_EQ(service.queue_depth(), 2u);
  EXPECT_EQ(probe.cancelled, 1u);
  EXPECT_FALSE(service.cancel(doomed));  // already cancelled

  service.drain();
  EXPECT_EQ(service.counters().jobs_planned, 2u);
  EXPECT_EQ(service.counters().jobs_cancelled, 1u);
  EXPECT_EQ(service.status(doomed).assignment.size(), 0u);  // never planned
  EXPECT_EQ(service.counters().tasks_planned, 16u);
}

TEST_F(ServiceFixture, CancelPlannedJobFreesLoadAndRefundsTenant) {
  PlannerService service(nn, placement);
  const JobId id = service.submit(job(0, 16, /*tenant=*/3));
  service.drain();
  EXPECT_EQ(service.status(id).state, JobState::kPlanned);

  std::uint32_t active = 0;
  for (auto l : service.process_load()) active += l;
  EXPECT_EQ(active, 16u);
  const Bytes charged = service.tenants().charged(3);
  EXPECT_GT(charged, 0u);

  EXPECT_TRUE(service.cancel(id));
  EXPECT_EQ(service.status(id).state, JobState::kCancelled);
  for (auto l : service.process_load()) EXPECT_EQ(l, 0u);
  EXPECT_EQ(service.tenants().charged(3), 0u);  // full refund
  EXPECT_FALSE(service.complete(id));           // cancelled, not completable
}

TEST_F(ServiceFixture, CompleteReleasesCapacityButKeepsTheCharge) {
  PlannerService service(nn, placement);
  const JobId id = service.submit(job(0, 16, /*tenant=*/2));
  service.drain();
  const Bytes charged = service.tenants().charged(2);

  EXPECT_TRUE(service.complete(id));
  EXPECT_EQ(service.status(id).state, JobState::kCompleted);
  for (auto l : service.process_load()) EXPECT_EQ(l, 0u);
  EXPECT_EQ(service.tenants().charged(2), charged);  // fairness remembers
  EXPECT_EQ(service.counters().jobs_completed, 1u);
  EXPECT_FALSE(service.complete(id));
  EXPECT_FALSE(service.cancel(id));

  // Freed capacity is re-planned: a second wave lands with balanced load.
  (void)service.submit(job(16, 16, 2, 1.0, service.now()));
  service.drain();
  std::uint32_t active = 0;
  for (auto l : service.process_load()) active += l;
  EXPECT_EQ(active, 16u);
}

TEST_F(ServiceFixture, EmptyJobsAndEmptyAdvancesAreFine) {
  PlannerService service(nn, placement);
  service.advance_to(1.0);  // nothing queued
  EXPECT_EQ(service.now(), 1.0);
  service.drain();  // still nothing
  EXPECT_EQ(service.counters().batches, 0u);

  JobRequest empty;
  empty.arrival = 2.0;
  const JobId id = service.submit(std::move(empty));
  service.drain();
  EXPECT_EQ(service.status(id).state, JobState::kPlanned);
  EXPECT_EQ(service.status(id).total_bytes, 0u);
  EXPECT_EQ(assigned_ids(service.status(id)).size(), 0u);
  EXPECT_EQ(service.counters().batches, 1u);
}

TEST_F(ServiceFixture, Validation) {
  EXPECT_THROW(PlannerService(nn, {}), std::invalid_argument);
  EXPECT_THROW(PlannerService(nn, {99}), std::invalid_argument);

  PlannerService service(nn, placement);
  service.advance_to(5.0);
  EXPECT_THROW((void)service.submit(job(0, 4, 0, 1.0, /*arrival=*/4.0)),
               std::invalid_argument);  // arrival in the past

  JobRequest multi;
  multi.tasks.resize(1);
  multi.tasks[0].inputs = {0, 1};
  multi.arrival = 5.0;
  EXPECT_THROW((void)service.submit(std::move(multi)), std::invalid_argument);

  (void)service.submit(job(0, 4, /*tenant=*/9, /*weight=*/1.0, 5.0));
  EXPECT_THROW((void)service.submit(job(4, 4, 9, /*weight=*/2.0, 5.0)),
               std::invalid_argument);  // weight fixed at first touch

  EXPECT_THROW(service.status(kInvalidJob), std::invalid_argument);
  EXPECT_THROW(service.status(42), std::invalid_argument);
  EXPECT_THROW(service.advance_to(4.0), std::invalid_argument);  // time reversal
}

TEST_F(ServiceFixture, LoadStaysBalancedAcrossBatches) {
  PlannerService service(nn, placement);
  Seconds t = 0;
  for (std::uint32_t start = 0; start < 80; start += 16) {
    (void)service.submit(job(start, 16, 0, 1.0, t));
    t += 1.0;
  }
  service.drain();
  std::uint32_t hi = 0, lo = UINT32_MAX;
  for (auto l : service.process_load()) {
    hi = std::max(hi, l);
    lo = std::min(lo, l);
  }
  EXPECT_LE(hi - lo, 1u);  // the incremental quota rule, across batches
  EXPECT_EQ(service.counters().batches, 5u);
  EXPECT_EQ(service.counters().max_queue_depth, 5u);
}

}  // namespace
}  // namespace opass::core
