#include "opass/admission.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>

#include "common/require.hpp"

namespace opass::core {

void AdmissionQueue::push(PendingJob job) {
  const auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), job, [](const PendingJob& a, const PendingJob& b) {
        if (a.request.arrival != b.request.arrival)
          return a.request.arrival < b.request.arrival;
        return a.id < b.id;
      });
  pending_tasks_ += job.request.tasks.size();
  queue_.insert(pos, std::move(job));
}

bool AdmissionQueue::cancel(JobId id) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [id](const PendingJob& j) { return j.id == id; });
  if (it == queue_.end()) return false;
  pending_tasks_ -= it->request.tasks.size();
  queue_.erase(it);
  return true;
}

bool AdmissionQueue::batch_ready(Seconds now) const {
  return !queue_.empty() && queue_.front().request.arrival <= now;
}

Seconds AdmissionQueue::next_arrival() const {
  OPASS_REQUIRE(!queue_.empty(), "admission queue is empty");
  return queue_.front().request.arrival;
}

std::vector<PendingJob> AdmissionQueue::pop_batch(Seconds now, Seconds window) {
  OPASS_REQUIRE(batch_ready(now), "no batch is ready at this time");
  const Seconds cutoff = std::min(now, queue_.front().request.arrival + window);

  std::size_t take = 0;
  std::uint64_t tasks = 0;
  for (; take < queue_.size() && queue_[take].request.arrival <= cutoff; ++take)
    tasks += queue_[take].request.tasks.size();

  const auto cut = queue_.begin() + static_cast<std::ptrdiff_t>(take);
  std::vector<PendingJob> batch(std::make_move_iterator(queue_.begin()),
                                std::make_move_iterator(cut));
  queue_.erase(queue_.begin(), cut);
  pending_tasks_ -= tasks;
  return batch;
}

void TenantAccounts::touch(TenantId tenant, double weight) {
  OPASS_REQUIRE(weight > 0, "tenant weight must be positive");
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (order_[i] == tenant) {
      OPASS_REQUIRE(weights_[i] == weight,
                    "tenant re-registered with a different weight");
      return;
    }
  }
  order_.push_back(tenant);
  weights_.push_back(weight);
  charged_.push_back(0);
}

std::size_t TenantAccounts::index_of(TenantId tenant) const {
  for (std::size_t i = 0; i < order_.size(); ++i)
    if (order_[i] == tenant) return i;
  OPASS_REQUIRE(false, "unknown tenant");
}

bool TenantAccounts::known(TenantId tenant) const {
  return std::find(order_.begin(), order_.end(), tenant) != order_.end();
}

double TenantAccounts::weight(TenantId tenant) const { return weights_[index_of(tenant)]; }

Bytes TenantAccounts::charged(TenantId tenant) const { return charged_[index_of(tenant)]; }

void TenantAccounts::charge(TenantId tenant, Bytes local_bytes) {
  charged_[index_of(tenant)] += local_bytes;
}

void TenantAccounts::refund(TenantId tenant, Bytes local_bytes) {
  const std::size_t i = index_of(tenant);
  OPASS_CHECK(charged_[i] >= local_bytes, "tenant refund exceeds charged bytes");
  charged_[i] -= local_bytes;
}

double TenantAccounts::normalized_usage(TenantId tenant) const {
  const std::size_t i = index_of(tenant);
  return static_cast<double>(charged_[i]) / weights_[i];
}

std::vector<std::uint32_t> TenantAccounts::split_slots(
    std::uint32_t slots, const std::vector<TenantId>& tenant_ids,
    const std::vector<std::uint32_t>& demand, Bytes bytes_per_slot) const {
  OPASS_REQUIRE(tenant_ids.size() == demand.size(),
                "tenant and demand vectors must align");
  const std::size_t n = tenant_ids.size();
  std::vector<std::uint32_t> grant(n, 0);
  std::vector<double> usage(n), weight(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = index_of(tenant_ids[i]);
    usage[i] = static_cast<double>(charged_[idx]);
    weight[i] = weights_[idx];
  }
  const auto per_slot = static_cast<double>(bytes_per_slot);
  for (std::uint32_t granted = 0; granted < slots; ++granted) {
    std::size_t best = n;
    double best_key = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (grant[i] >= demand[i]) continue;
      const double key = (usage[i] + grant[i] * per_slot) / weight[i];
      if (best == n || key < best_key ||
          (key == best_key && tenant_ids[i] < tenant_ids[best])) {
        best = i;
        best_key = key;
      }
    }
    if (best == n) break;  // every tenant is demand-capped
    ++grant[best];
  }
  return grant;
}

}  // namespace opass::core
