#include "opass/service.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/require.hpp"
#include "graph/flow_network.hpp"
#include "opass/fig5.hpp"

namespace opass::core {

PlannerService::PlannerService(const dfs::NameNode& nn, ProcessPlacement placement,
                               ServiceOptions options)
    : nn_(nn), placement_(std::move(placement)),
      procs_on_node_(processes_by_node(nn, placement_)), options_(options),
      rng_(options.seed), load_(placement_.size(), 0) {
  OPASS_REQUIRE(!placement_.empty(), "need at least one process");
  OPASS_REQUIRE(options_.batch_window >= 0, "batch window must be non-negative");
}

JobId PlannerService::submit(JobRequest request) {
  OPASS_REQUIRE(request.arrival >= now_,
                "job arrival precedes the service's current time");
  for (const auto& t : request.tasks)
    OPASS_REQUIRE(t.inputs.size() == 1, "service jobs must hold single-input tasks");
  tenants_.touch(request.tenant, request.weight);

  const JobId id = static_cast<JobId>(jobs_.size()) + 1;
  Job job;
  job.status.id = id;
  job.status.state = JobState::kQueued;
  job.status.tenant = request.tenant;
  job.status.arrival = request.arrival;
  for (const auto& t : request.tasks)
    job.status.total_bytes += nn_.chunk(t.inputs[0]).size;
  jobs_.push_back(std::move(job));

  queue_.push(PendingJob{id, std::move(request)});
  ++counters_.jobs_submitted;
  counters_.max_queue_depth = std::max(counters_.max_queue_depth, queue_depth());
  if (probe_ != nullptr)
    probe_->on_event({now_, ProbeKind::kJobQueued, id, queue_depth(), 0});
  return id;
}

const JobStatus& PlannerService::status(JobId id) const {
  OPASS_REQUIRE(id != kInvalidJob && id <= jobs_.size(), "unknown job id");
  return jobs_[static_cast<std::size_t>(id - 1)].status;
}

bool PlannerService::cancel(JobId id) {
  OPASS_REQUIRE(id != kInvalidJob && id <= jobs_.size(), "unknown job id");
  Job& job = jobs_[static_cast<std::size_t>(id - 1)];
  switch (job.status.state) {
    case JobState::kQueued: {
      const bool removed = queue_.cancel(id);
      OPASS_CHECK(removed, "queued job missing from admission queue");
      break;
    }
    case JobState::kPlanned:
      // Incremental re-plan: free the capacity and the fairness charge so
      // the next batch's quotas and tenant splits see the withdrawal.
      for (std::uint32_t p = 0; p < load_.size(); ++p) {
        OPASS_CHECK(load_[p] >= job.process_tasks[p], "load underflow on cancel");
        load_[p] -= job.process_tasks[p];
      }
      tenants_.refund(job.status.tenant, job.status.local_bytes);
      break;
    case JobState::kCompleted:
    case JobState::kCancelled:
      return false;
  }
  job.status.state = JobState::kCancelled;
  ++counters_.jobs_cancelled;
  if (probe_ != nullptr)
    probe_->on_event({now_, ProbeKind::kJobCancelled, id, queue_depth(), 0});
  return true;
}

bool PlannerService::complete(JobId id) {
  OPASS_REQUIRE(id != kInvalidJob && id <= jobs_.size(), "unknown job id");
  Job& job = jobs_[static_cast<std::size_t>(id - 1)];
  if (job.status.state != JobState::kPlanned) return false;
  for (std::uint32_t p = 0; p < load_.size(); ++p) {
    OPASS_CHECK(load_[p] >= job.process_tasks[p], "load underflow on complete");
    load_[p] -= job.process_tasks[p];
  }
  job.status.state = JobState::kCompleted;
  ++counters_.jobs_completed;
  return true;
}

void PlannerService::advance_to(Seconds t) {
  OPASS_REQUIRE(t >= now_, "virtual time must not move backwards");
  // A batch is cut once its coalescing window closes: head arrival + window.
  while (!queue_.empty() && queue_.next_arrival() + options_.batch_window <= t) {
    const Seconds cut = queue_.next_arrival() + options_.batch_window;
    plan_batch(queue_.pop_batch(t, options_.batch_window), cut);
  }
  now_ = t;
}

void PlannerService::drain() {
  while (!queue_.empty()) {
    const Seconds cut = queue_.next_arrival() + options_.batch_window;
    plan_batch(queue_.pop_batch(cut, options_.batch_window), cut);
    now_ = std::max(now_, cut);
  }
}

namespace {

/// One task of a merged batch: which job it came from plus its input chunk.
struct BatchTask {
  std::uint32_t job = 0;  ///< index into the batch's job vector
  runtime::TaskId id = 0;
  dfs::ChunkId chunk = 0;
  std::uint32_t tenant_slot = 0;  ///< index into the batch tenant vector
};

}  // namespace

void PlannerService::plan_batch(std::vector<PendingJob> batch, Seconds cut) {
  const auto m = static_cast<std::uint32_t>(placement_.size());
  const auto job_count = static_cast<std::uint32_t>(batch.size());
  OPASS_CHECK(job_count > 0, "plan_batch called with an empty batch");

  // Flatten the batch: tasks in (queue order, task order), tenants in
  // first-appearance order.
  std::vector<BatchTask> tasks;
  std::vector<TenantId> tenant_ids;
  std::vector<std::uint32_t> tenant_demand;
  for (std::uint32_t j = 0; j < job_count; ++j) {
    const JobRequest& request = batch[j].request;
    std::uint32_t slot = 0;
    for (; slot < tenant_ids.size(); ++slot)
      if (tenant_ids[slot] == request.tenant) break;
    if (slot == tenant_ids.size()) {
      tenant_ids.push_back(request.tenant);
      tenant_demand.push_back(0);
    }
    for (const auto& t : request.tasks) {
      tasks.push_back(BatchTask{j, t.id, t.inputs[0], slot});
      ++tenant_demand[slot];
    }
  }
  const auto b = static_cast<std::uint32_t>(tasks.size());
  const auto tenant_count = static_cast<std::uint32_t>(tenant_ids.size());

  // Batch quotas: the incremental planner's batch-adjusted fair share —
  // grant each slot to the least cumulatively loaded process so active
  // loads stay within one across batches.
  const std::vector<std::uint32_t> quota = least_loaded_quotas(load_, b);

  // Each task's locality edges, from its chunk's replicas. Rows are
  // ascending, so edges go in task-major, ascending-process order — the
  // order Dinic and the fill below depend on.
  std::vector<dfs::ChunkId> chunks(b);
  for (std::uint32_t k = 0; k < b; ++k) chunks[k] = tasks[k].chunk;
  const Adjacency holders = replica_holders(nn_, chunks, procs_on_node_);

  // Tenant-layered Fig. 5 network: s -> tenant -> task -> process -> t.
  // Edge-id layout (dense, insertion order): [0, T) tenant caps, [T, T + b)
  // tenant->task, [T + b, T + b + pt) task->process, then process->t, then
  // the fair-share pass's top-up s->tenant edges, one per tenant in `top_ups`.
  graph::FlowNetwork& net = workspace_.network;
  const graph::NodeIdx s = 0;
  const graph::NodeIdx t = 1;
  const graph::NodeIdx tenant0 = 2;
  const graph::NodeIdx task0 = 2 + tenant_count;
  const graph::NodeIdx proc0 = task0 + b;
  const auto pt_count = static_cast<graph::EdgeIdx>(holders.items.size());
  const graph::EdgeIdx top_up0 = tenant_count + b + pt_count + m;
  const auto build = [&](const std::vector<std::uint32_t>& tenant_caps,
                         const std::vector<std::uint32_t>& top_ups) {
    net.build(proc0 + m, [&](graph::FlowNetwork::Builder& edges) {
      for (std::uint32_t i = 0; i < tenant_count; ++i)
        edges.add_edge(s, tenant0 + i, static_cast<graph::Cap>(tenant_caps[i]));
      for (std::uint32_t k = 0; k < b; ++k)
        edges.add_edge(tenant0 + tasks[k].tenant_slot, task0 + k, 1);
      for (std::uint32_t k = 0; k < b; ++k)
        for (std::uint32_t p : holders.row(k)) edges.add_edge(task0 + k, proc0 + p, 1);
      for (std::uint32_t p = 0; p < m; ++p)
        edges.add_edge(proc0 + p, t, static_cast<graph::Cap>(quota[p]));
      for (std::uint32_t i : top_ups) edges.add_edge(s, tenant0 + i, 0);
    });
  };

  std::vector<std::uint32_t> fair_slots = tenant_demand;
  if (b > 0) {
    // Pass 0: unconstrained solve — the batch's locality budget L.
    build(tenant_demand, {});
    const graph::Cap budget = graph::max_flow(workspace_, s, t);

    if (options_.fair_share && tenant_count > 1 && budget > 0) {
      // Split L among the batch's tenants by weight against cumulative
      // usage, then re-solve under the fair caps and top the caps back up
      // so unclaimed locality is never wasted (work-conserving). A tenant
      // that wants more than its cap gets a zero-capacity top-up edge,
      // which the capped solve skips; raising it lets the re-solve continue
      // from the capped flow.
      Bytes batch_bytes = 0;
      for (const auto& task : tasks) batch_bytes += nn_.chunk(task.chunk).size;
      const Bytes bytes_per_slot = std::max<Bytes>(1, batch_bytes / b);
      fair_slots = tenants_.split_slots(static_cast<std::uint32_t>(budget), tenant_ids,
                                        tenant_demand, bytes_per_slot);
      std::vector<std::uint32_t> top_ups;
      for (std::uint32_t i = 0; i < tenant_count; ++i)
        if (tenant_demand[i] > fair_slots[i]) top_ups.push_back(i);
      build(fair_slots, top_ups);
      (void)graph::max_flow(workspace_, s, t);
      for (graph::EdgeIdx j = 0; j < top_ups.size(); ++j) {
        const std::uint32_t i = top_ups[j];
        net.add_capacity(top_up0 + j,
                         static_cast<graph::Cap>(tenant_demand[i] - fair_slots[i]));
      }
      if (!top_ups.empty()) (void)graph::max_flow(workspace_, s, t);
    }
  }

  // Read the matching back off the task->process edges, then random-fill
  // the leftovers against remaining process quota (the service Rng).
  std::vector<std::uint32_t> owner(b, kNoOwner);
  std::vector<char> matched(b, 0);
  if (b > 0) {
    const graph::EdgeIdx pt0 = tenant_count + b;
    for (graph::EdgeIdx e = pt0; e < pt0 + pt_count; ++e) {
      if (net.flow(e) == 1) {
        const std::uint32_t k = net.edge_from(e) - task0;
        owner[k] = net.edge_to(e) - proc0;
        matched[k] = 1;
      }
    }
  }
  const auto randomly_filled =
      static_cast<std::uint32_t>(random_fill(owner, quota, rng_).size());

  // Write the batch back into job statuses, the load vector, the tenant
  // ledger and the batch report.
  ++counters_.batches;
  BatchReport report;
  report.batch = counters_.batches;
  report.planned_at = cut;
  report.jobs = job_count;
  report.tasks = b;
  report.randomly_filled = randomly_filled;
  report.tenants.resize(tenant_count);
  for (std::uint32_t i = 0; i < tenant_count; ++i) {
    report.tenants[i].tenant = tenant_ids[i];
    report.tenants[i].tasks = tenant_demand[i];
    report.tenants[i].fair_slots = fair_slots[i];
  }

  for (std::uint32_t j = 0; j < job_count; ++j) {
    Job& job = jobs_[static_cast<std::size_t>(batch[j].id - 1)];
    job.status.state = JobState::kPlanned;
    job.status.planned_at = cut;
    job.status.batch = counters_.batches;
    job.status.assignment.assign(m, {});
    job.process_tasks.assign(m, 0);
  }
  for (std::uint32_t k = 0; k < b; ++k) {
    const std::uint32_t p = owner[k];
    OPASS_CHECK(p < m, "batch task left unassigned");
    Job& job = jobs_[static_cast<std::size_t>(batch[tasks[k].job].id - 1)];
    job.status.assignment[p].push_back(tasks[k].id);
    ++job.process_tasks[p];
    ++load_[p];
    const auto& chunk = nn_.chunk(tasks[k].chunk);
    const bool local = chunk.has_replica_on(placement_[p]);
    if (matched[k]) {
      ++job.status.locally_matched;
      ++report.locally_matched;
      ++report.tenants[tasks[k].tenant_slot].locally_matched;
    } else {
      ++job.status.randomly_filled;
    }
    if (local) {
      job.status.local_bytes += chunk.size;
      report.tenants[tasks[k].tenant_slot].local_bytes += chunk.size;
    }
  }
  for (std::uint32_t j = 0; j < job_count; ++j) {
    const Job& job = jobs_[static_cast<std::size_t>(batch[j].id - 1)];
    tenants_.charge(job.status.tenant, job.status.local_bytes);
  }

  counters_.jobs_planned += job_count;
  counters_.tasks_planned += b;
  counters_.locally_matched += report.locally_matched;
  counters_.randomly_filled += randomly_filled;
  counters_.max_batch_tasks = std::max(counters_.max_batch_tasks, b);
  report.queue_depth_after = queue_depth();
  last_batch_ = std::move(report);
  if (probe_ != nullptr)
    probe_->on_event({cut, ProbeKind::kBatchPlanned, last_batch_.batch,
                      last_batch_.queue_depth_after, 0});
}

}  // namespace opass::core
