#include "obs/collect.hpp"

#include "common/require.hpp"
#include "obs/names.hpp"

namespace opass::obs {

const std::vector<double>& io_time_bounds() {
  static const std::vector<double> bounds = {0.25, 0.5, 1, 2, 4, 8, 16, 32};
  return bounds;
}

void collect_execution(MetricsRegistry& registry, const runtime::ExecutionResult& result,
                       std::uint32_t node_count, const std::string& prefix) {
  OPASS_REQUIRE(node_count > 0, "collector needs at least one node");
  // 8 totals and the histogram, 2 per node, 2 per process.
  registry.reserve(9 + 2 * std::size_t{node_count} + 2 * result.process_finish_time.size());
  NameBuffer name(prefix);
  registry.gauge_set(name(".makespan_s"), result.makespan);
  registry.counter_add(name(".tasks_executed"), result.tasks_executed);
  registry.counter_add(name(".read_failures"), result.read_failures);

  std::uint64_t reads_total = 0;
  std::uint64_t reads_local = 0;
  Bytes bytes_total = 0;
  Bytes bytes_local = 0;
  std::vector<Bytes> node_bytes(node_count, 0);
  std::vector<std::uint64_t> node_ops(node_count, 0);
  HistogramData& io_time = registry.define_histogram(name(".io_time_s"), io_time_bounds());
  for (const sim::ReadRecord& r : result.trace.records()) {
    OPASS_REQUIRE(r.serving_node < node_count, "record references a node out of range");
    ++reads_total;
    bytes_total += r.bytes;
    if (r.local) {
      ++reads_local;
      bytes_local += r.bytes;
    }
    node_bytes[r.serving_node] += r.bytes;
    ++node_ops[r.serving_node];
    io_time.observe(r.io_time());
  }
  registry.counter_add(name(".reads_total"), reads_total);
  registry.counter_add(name(".reads_local"), reads_local);
  registry.counter_add(name(".bytes_total"), bytes_total);
  registry.counter_add(name(".bytes_local"), bytes_local);
  registry.counter_add(name(".bytes_remote"), bytes_total - bytes_local);
  for (std::uint32_t n = 0; n < node_count; ++n) {
    registry.counter_add(name(".node.", n, ".bytes_served"), node_bytes[n]);
    registry.counter_add(name(".node.", n, ".ops_served"), node_ops[n]);
  }
  for (std::size_t p = 0; p < result.process_finish_time.size(); ++p) {
    registry.gauge_set(name(".process.", p, ".finish_s"), result.process_finish_time[p]);
    // Always 0 (the executor has no per-task barrier); kept because the
    // pinned metrics documents list it, until a benchmark digest change.
    registry.gauge_set(name(".process.", p, ".stall_s"), 0.0);
  }
}

void collect_cluster(MetricsRegistry& registry, const sim::Cluster& cluster,
                     const std::string& prefix) {
  // 7 engine gauges and counters, 5 per node.
  registry.reserve(7 + 5 * std::size_t{cluster.node_count()});
  NameBuffer name(prefix);
  // Engine-level scalability gauges: slot pools are reused, so slot counts
  // track peak concurrency (bounded by processes x inputs in flight), not the
  // total number of flows/reads ever started; the recompute counters expose
  // how much re-leveling work the incremental max-min engine actually did.
  const sim::FlowSimulator& s = cluster.simulator();
  registry.gauge_set(name(".sim.flow_slots"), static_cast<double>(s.flow_slot_count()));
  registry.gauge_set(name(".sim.peak_active_flows"),
                     static_cast<double>(s.peak_active_flows()));
  registry.gauge_set(name(".sim.read_slots"), static_cast<double>(cluster.read_slot_count()));
  registry.counter_add(name(".sim.rate_recomputes"), s.rate_recomputes());
  registry.counter_add(name(".sim.rate_recompute_touched_flows"),
                       s.rate_recompute_touched_flows());
  registry.gauge_set(name(".sim.max_relevel_component"),
                     static_cast<double>(s.max_relevel_component()));
  registry.counter_add(name(".sim.eta_stale_pops"), s.eta_stale_pops());
  for (std::uint32_t n = 0; n < cluster.node_count(); ++n) {
    registry.gauge_set(name(".node.", n, ".disk_busy_s"), cluster.disk_busy_time(n));
    registry.gauge_set(name(".node.", n, ".disk_peak_load"),
                       static_cast<double>(cluster.disk_peak_load(n)));
    registry.counter_add(name(".node.", n, ".disk_degraded_joins"),
                         cluster.disk_degraded_joins(n));
    registry.counter_add(name(".node.", n, ".admission_waits"), cluster.admission_waits(n));
    registry.gauge_set(name(".node.", n, ".admission_queue_peak"),
                       static_cast<double>(cluster.peak_admission_queue(n)));
  }
}

void collect_plan(MetricsRegistry& registry, const core::PlanResult& plan,
                  const std::string& prefix) {
  NameBuffer name(prefix);
  registry.counter_add(name(".locally_matched"), plan.locally_matched);
  registry.counter_add(name(".randomly_filled"), plan.randomly_filled);
  registry.counter_add(name(".rack_local"), plan.rack_local);
  registry.counter_add(name(".reassignments"), plan.reassignments);
  registry.counter_add(name(".matched_bytes"), plan.matched_bytes);
  registry.counter_add(name(".total_bytes"), plan.stats.total_bytes);
  registry.counter_add(name(".local_bytes"), plan.stats.local_bytes);
  registry.gauge_set(name(".local_fraction"), plan.local_fraction());
  registry.gauge_set(name(".plan_wall_ms"), plan.plan_wall_ms, Determinism::kWallClock);
  registry.gauge_set(name(".stats_wall_ms"), plan.stats_wall_ms, Determinism::kWallClock);
}

void collect_dynamic(MetricsRegistry& registry, const core::OpassDynamicSource& source,
                     const std::string& prefix) {
  NameBuffer name(prefix);
  registry.counter_add(name(".guideline_hits"), source.guideline_hits());
  registry.counter_add(name(".steals"), source.steal_count());
  registry.counter_add(name(".steal_local_hits"), source.steal_local_hits());
  registry.gauge_set(name(".steal_local_hit_rate"),
                     source.steal_count()
                         ? static_cast<double>(source.steal_local_hits()) /
                               static_cast<double>(source.steal_count())
                         : 0.0);
}

void collect_service(MetricsRegistry& registry, const core::PlannerService& service,
                     const std::string& prefix) {
  NameBuffer name(prefix);
  const core::ServiceCounters& c = service.counters();
  registry.counter_add(name(".jobs_submitted"), c.jobs_submitted);
  registry.counter_add(name(".jobs_planned"), c.jobs_planned);
  registry.counter_add(name(".jobs_cancelled"), c.jobs_cancelled);
  registry.counter_add(name(".jobs_completed"), c.jobs_completed);
  registry.counter_add(name(".tasks_planned"), c.tasks_planned);
  registry.counter_add(name(".locally_matched"), c.locally_matched);
  registry.counter_add(name(".randomly_filled"), c.randomly_filled);
  registry.counter_add(name(".batches"), c.batches);
  registry.gauge_set(name(".max_batch_tasks"), c.max_batch_tasks);
  registry.gauge_set(name(".max_queue_depth"), c.max_queue_depth);
  registry.gauge_set(name(".local_match_fraction"),
                     c.tasks_planned ? static_cast<double>(c.locally_matched) /
                                           static_cast<double>(c.tasks_planned)
                                     : 0.0);
  const core::TenantAccounts& accounts = service.tenants();
  for (core::TenantId tenant : accounts.tenants()) {
    registry.counter_add(name(".tenant.", tenant, ".charged_bytes"), accounts.charged(tenant));
    registry.gauge_set(name(".tenant.", tenant, ".weight"), accounts.weight(tenant));
    registry.gauge_set(name(".tenant.", tenant, ".normalized_usage"),
                       accounts.normalized_usage(tenant));
  }
}

}  // namespace opass::obs
