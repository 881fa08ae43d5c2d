// AdmissionQueue batching/coalescing and the TenantAccounts fair-share
// ledger — the two policy pieces of the planning service, unit-tested
// without a namespace or a flow solve.
#include <gtest/gtest.h>

#include "opass/admission.hpp"

namespace opass::core {
namespace {

PendingJob pending(JobId id, Seconds arrival, std::uint32_t task_count,
                   TenantId tenant = 0) {
  PendingJob job;
  job.id = id;
  job.request.arrival = arrival;
  job.request.tenant = tenant;
  job.request.tasks.resize(task_count);
  for (std::uint32_t i = 0; i < task_count; ++i) {
    job.request.tasks[i].id = i;
    job.request.tasks[i].inputs = {0};
  }
  return job;
}

TEST(AdmissionQueue, OrdersByArrivalThenId) {
  AdmissionQueue q;
  q.push(pending(2, 1.0, 1));
  q.push(pending(1, 0.5, 1));  // submitted later, arrives earlier: sorts ahead
  q.push(pending(3, 0.5, 1));  // co-arrival with id 1: id order
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(q.next_arrival(), 0.5);

  const auto first = q.pop_batch(10.0, {});
  ASSERT_EQ(first.size(), 2u);  // window 0: both 0.5-arrivals coalesce
  EXPECT_EQ(first[0].id, 1u);
  EXPECT_EQ(first[1].id, 3u);
  EXPECT_EQ(q.pop_batch(10.0, {}).front().id, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(AdmissionQueue, WindowCoalescesNearArrivals) {
  AdmissionQueue q;
  q.push(pending(1, 0.0, 1));
  q.push(pending(2, 0.5, 1));
  q.push(pending(3, 0.9, 1));
  q.push(pending(4, 2.0, 1));

  const auto batch = q.pop_batch(10.0, /*window=*/1.0);
  EXPECT_EQ(batch.size(), 3u);  // arrivals within [0, 1] of the head
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.pop_batch(10.0, 1.0).front().id, 4u);
}

TEST(AdmissionQueue, NowCapsTheCutoffBelowTheWindow) {
  AdmissionQueue q;
  q.push(pending(1, 0.0, 1));
  q.push(pending(2, 0.5, 1));
  // Only 0.4 s have elapsed: job 2 has not arrived yet, window or not.
  EXPECT_EQ(q.pop_batch(0.4, /*window=*/1.0).size(), 1u);
  EXPECT_EQ(q.depth(), 1u);
}

TEST(AdmissionQueue, CancelRemovesMidQueue) {
  AdmissionQueue q;
  q.push(pending(1, 0.0, 4));
  q.push(pending(2, 1.0, 8));
  q.push(pending(3, 2.0, 2));
  EXPECT_EQ(q.pending_tasks(), 14u);

  EXPECT_TRUE(q.cancel(2));
  EXPECT_FALSE(q.cancel(2));  // already gone
  EXPECT_FALSE(q.cancel(99));
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.pending_tasks(), 6u);
  EXPECT_EQ(q.pop_batch(0.0, {}).front().id, 1u);
  EXPECT_EQ(q.pop_batch(2.0, {}).front().id, 3u);
}

TEST(AdmissionQueue, PopRequiresAReadyBatch) {
  AdmissionQueue q;
  EXPECT_THROW(q.next_arrival(), std::invalid_argument);
  EXPECT_THROW(q.pop_batch(0.0, {}), std::invalid_argument);
  q.push(pending(1, 5.0, 1));
  EXPECT_FALSE(q.batch_ready(4.9));
  EXPECT_THROW(q.pop_batch(4.9, {}), std::invalid_argument);
  EXPECT_TRUE(q.batch_ready(5.0));
}

TEST(TenantAccounts, TouchFixesWeightChargeAndRefundTrack) {
  TenantAccounts accounts;
  accounts.touch(7, 2.0);
  accounts.touch(7, 2.0);  // idempotent re-touch
  EXPECT_THROW(accounts.touch(7, 3.0), std::invalid_argument);
  EXPECT_TRUE(accounts.known(7));
  EXPECT_FALSE(accounts.known(8));

  accounts.charge(7, 100);
  EXPECT_EQ(accounts.charged(7), 100u);
  EXPECT_EQ(accounts.normalized_usage(7), 50.0);
  accounts.refund(7, 40);
  EXPECT_EQ(accounts.charged(7), 60u);
  EXPECT_THROW(accounts.refund(7, 1000), std::logic_error);
}

TEST(TenantAccounts, SplitSlotsFollowsWeights) {
  TenantAccounts accounts;
  accounts.touch(0, 1.0);
  accounts.touch(1, 2.0);
  // Equal demand, zero usage: grants converge to the 1:2 weight ratio.
  const auto grant = accounts.split_slots(6, {0, 1}, {4, 4}, /*bytes_per_slot=*/10);
  ASSERT_EQ(grant.size(), 2u);
  EXPECT_EQ(grant[0], 2u);
  EXPECT_EQ(grant[1], 4u);
}

TEST(TenantAccounts, SplitSlotsRespectsDemandCaps) {
  TenantAccounts accounts;
  accounts.touch(0, 1.0);
  accounts.touch(1, 2.0);
  // More slots than total demand: every tenant caps out at its demand.
  const auto grant = accounts.split_slots(10, {0, 1}, {2, 4}, 10);
  EXPECT_EQ(grant[0], 2u);
  EXPECT_EQ(grant[1], 4u);
}

TEST(TenantAccounts, SplitSlotsCompensatesPastUsage) {
  TenantAccounts accounts;
  accounts.touch(0, 1.0);
  accounts.touch(1, 1.0);
  accounts.charge(0, 40);  // tenant 0 already consumed 4 slots' worth
  const auto grant = accounts.split_slots(4, {0, 1}, {4, 4}, 10);
  // Equal weights, but tenant 1 is behind: it receives every slot.
  EXPECT_EQ(grant[0], 0u);
  EXPECT_EQ(grant[1], 4u);
}

TEST(TenantAccounts, SplitSlotsTiesBreakOnTenantId) {
  TenantAccounts accounts;
  accounts.touch(3, 1.0);
  accounts.touch(1, 1.0);
  const auto grant = accounts.split_slots(1, {3, 1}, {1, 1}, 10);
  EXPECT_EQ(grant[0], 0u);
  EXPECT_EQ(grant[1], 1u);  // tie on usage: the lower tenant id wins
}

}  // namespace
}  // namespace opass::core
