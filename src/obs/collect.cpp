#include "obs/collect.hpp"

#include "common/require.hpp"

namespace opass::obs {

const std::vector<double>& io_time_bounds() {
  static const std::vector<double> bounds = {0.25, 0.5, 1, 2, 4, 8, 16, 32};
  return bounds;
}

void collect_execution(MetricsRegistry& registry, const runtime::ExecutionResult& result,
                       std::uint32_t node_count, const std::string& prefix) {
  OPASS_REQUIRE(node_count > 0, "collector needs at least one node");
  registry.gauge_set(prefix + ".makespan_s", result.makespan);
  registry.counter_add(prefix + ".tasks_executed", result.tasks_executed);
  registry.counter_add(prefix + ".read_failures", result.read_failures);

  std::uint64_t reads_total = 0;
  std::uint64_t reads_local = 0;
  Bytes bytes_total = 0;
  Bytes bytes_local = 0;
  std::vector<Bytes> node_bytes(node_count, 0);
  std::vector<std::uint64_t> node_ops(node_count, 0);
  const std::string hist = prefix + ".io_time_s";
  registry.define_histogram(hist, io_time_bounds());
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
    registry.observe(hist, r.io_time());
  }
  registry.counter_add(prefix + ".reads_total", reads_total);
  registry.counter_add(prefix + ".reads_local", reads_local);
  registry.counter_add(prefix + ".bytes_total", bytes_total);
  registry.counter_add(prefix + ".bytes_local", bytes_local);
  registry.counter_add(prefix + ".bytes_remote", bytes_total - bytes_local);
  for (std::uint32_t n = 0; n < node_count; ++n) {
    const std::string node = prefix + ".node." + std::to_string(n);
    registry.counter_add(node + ".bytes_served", node_bytes[n]);
    registry.counter_add(node + ".ops_served", node_ops[n]);
  }
  for (std::size_t p = 0; p < result.process_finish_time.size(); ++p) {
    const std::string proc = prefix + ".process." + std::to_string(p);
    registry.gauge_set(proc + ".finish_s", result.process_finish_time[p]);
    if (p < result.barrier_stall.size())
      registry.gauge_set(proc + ".stall_s", result.barrier_stall[p]);
  }
}

void collect_cluster(MetricsRegistry& registry, const sim::Cluster& cluster,
                     const std::string& prefix) {
  // Engine-level scalability gauges: slot pools are reused, so slot counts
  // track peak concurrency (bounded by processes x inputs in flight), not the
  // total number of flows/reads ever started; the recompute counters expose
  // how much re-leveling work the incremental max-min engine actually did.
  const sim::FlowSimulator& s = cluster.simulator();
  registry.gauge_set(prefix + ".sim.flow_slots", static_cast<double>(s.flow_slot_count()));
  registry.gauge_set(prefix + ".sim.peak_active_flows",
                     static_cast<double>(s.peak_active_flows()));
  registry.gauge_set(prefix + ".sim.read_slots", static_cast<double>(cluster.read_slot_count()));
  registry.counter_add(prefix + ".sim.rate_recomputes", s.rate_recomputes());
  registry.counter_add(prefix + ".sim.rate_recompute_touched_flows",
                       s.rate_recompute_touched_flows());
  registry.gauge_set(prefix + ".sim.max_relevel_component",
                     static_cast<double>(s.max_relevel_component()));
  registry.counter_add(prefix + ".sim.eta_stale_pops", s.eta_stale_pops());
  for (std::uint32_t n = 0; n < cluster.node_count(); ++n) {
    const std::string node = prefix + ".node." + std::to_string(n);
    registry.gauge_set(node + ".disk_busy_s", cluster.disk_busy_time(n));
    registry.gauge_set(node + ".disk_peak_load",
                       static_cast<double>(cluster.disk_peak_load(n)));
    registry.counter_add(node + ".disk_degraded_joins", cluster.disk_degraded_joins(n));
    registry.counter_add(node + ".admission_waits", cluster.admission_waits(n));
    registry.gauge_set(node + ".admission_queue_peak",
                       static_cast<double>(cluster.peak_admission_queue(n)));
  }
}

void collect_plan(MetricsRegistry& registry, const core::PlanResult& plan,
                  const std::string& prefix) {
  registry.counter_add(prefix + ".locally_matched", plan.locally_matched);
  registry.counter_add(prefix + ".randomly_filled", plan.randomly_filled);
  registry.counter_add(prefix + ".rack_local", plan.rack_local);
  registry.counter_add(prefix + ".reassignments", plan.reassignments);
  registry.counter_add(prefix + ".matched_bytes", plan.matched_bytes);
  registry.counter_add(prefix + ".total_bytes", plan.stats.total_bytes);
  registry.counter_add(prefix + ".local_bytes", plan.stats.local_bytes);
  registry.gauge_set(prefix + ".local_fraction", plan.local_fraction());
  registry.gauge_set(prefix + ".plan_wall_ms", plan.plan_wall_ms,
                     Determinism::kWallClock);
  registry.gauge_set(prefix + ".stats_wall_ms", plan.stats_wall_ms,
                     Determinism::kWallClock);
}

void collect_dynamic(MetricsRegistry& registry, const core::OpassDynamicSource& source,
                     const std::string& prefix) {
  registry.counter_add(prefix + ".guideline_hits", source.guideline_hits());
  registry.counter_add(prefix + ".steals", source.steal_count());
  registry.counter_add(prefix + ".steal_local_hits", source.steal_local_hits());
  registry.gauge_set(prefix + ".steal_local_hit_rate",
                     source.steal_count()
                         ? static_cast<double>(source.steal_local_hits()) /
                               static_cast<double>(source.steal_count())
                         : 0.0);
}

void collect_service(MetricsRegistry& registry, const core::PlannerService& service,
                     const std::string& prefix) {
  const core::ServiceCounters& c = service.counters();
  registry.counter_add(prefix + ".jobs_submitted", c.jobs_submitted);
  registry.counter_add(prefix + ".jobs_planned", c.jobs_planned);
  registry.counter_add(prefix + ".jobs_cancelled", c.jobs_cancelled);
  registry.counter_add(prefix + ".jobs_completed", c.jobs_completed);
  registry.counter_add(prefix + ".tasks_planned", c.tasks_planned);
  registry.counter_add(prefix + ".locally_matched", c.locally_matched);
  registry.counter_add(prefix + ".randomly_filled", c.randomly_filled);
  registry.counter_add(prefix + ".batches", c.batches);
  registry.gauge_set(prefix + ".max_batch_tasks", c.max_batch_tasks);
  registry.gauge_set(prefix + ".max_queue_depth", c.max_queue_depth);
  registry.gauge_set(prefix + ".local_match_fraction",
                     c.tasks_planned ? static_cast<double>(c.locally_matched) /
                                           static_cast<double>(c.tasks_planned)
                                     : 0.0);
  const core::TenantAccounts& accounts = service.tenants();
  for (core::TenantId tenant : accounts.tenants()) {
    const std::string t = prefix + ".tenant." + std::to_string(tenant);
    registry.counter_add(t + ".charged_bytes", accounts.charged(tenant));
    registry.gauge_set(t + ".weight", accounts.weight(tenant));
    registry.gauge_set(t + ".normalized_usage", accounts.normalized_usage(tenant));
  }
}

}  // namespace opass::obs
