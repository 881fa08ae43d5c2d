#include "exp/service_trace.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/require.hpp"
#include "dfs/topology.hpp"
#include "obs/collect.hpp"
#include "obs/metrics_io.hpp"
#include "runtime/task.hpp"
#include "workload/dataset.hpp"

namespace opass::exp {

std::vector<TraceJob> parse_service_trace(const std::string& text) {
  std::vector<TraceJob> jobs;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    TraceJob job;
    std::string trailing;
    if (!(fields >> job.arrival >> job.tenant >> job.weight >> job.task_count) ||
        (fields >> trailing)) {
      OPASS_REQUIRE(false, "trace line " + std::to_string(line_no) +
                               ": expected \"<arrival> <tenant> <weight> <task_count>\"");
    }
    OPASS_REQUIRE(job.arrival >= 0,
                  "trace line " + std::to_string(line_no) + ": arrival must be >= 0");
    OPASS_REQUIRE(job.weight > 0,
                  "trace line " + std::to_string(line_no) + ": weight must be > 0");
    jobs.push_back(job);
  }
  return jobs;
}

std::vector<TraceJob> load_service_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  OPASS_REQUIRE(in.good(), "cannot read trace file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_service_trace(text.str());
}

namespace {

/// Deterministic one-line rendering of a job: stable field order, reals via
/// obs::format_double, assignment as p<process>=[ids] for non-empty
/// processes only.
std::string render_job(const core::JobStatus& job) {
  std::ostringstream os;
  os << "job=" << job.id << " tenant=" << job.tenant
     << " arrival=" << obs::format_double(job.arrival)
     << " state=" << core::job_state_name(job.state);
  if (job.state == core::JobState::kPlanned || job.state == core::JobState::kCompleted) {
    os << " batch=" << job.batch << " planned_at=" << obs::format_double(job.planned_at)
       << " matched=" << job.locally_matched << " filled=" << job.randomly_filled
       << " local_bytes=" << job.local_bytes << " total_bytes=" << job.total_bytes;
    for (std::size_t p = 0; p < job.assignment.size(); ++p) {
      if (job.assignment[p].empty()) continue;
      os << " p" << p << "=[";
      for (std::size_t i = 0; i < job.assignment[p].size(); ++i) {
        if (i > 0) os << ',';
        os << job.assignment[p][i];
      }
      os << ']';
    }
  }
  os << '\n';
  return os.str();
}

}  // namespace

ServiceTraceOutput replay_service_trace(const ServiceTraceConfig& cfg,
                                        const std::vector<TraceJob>& jobs) {
  OPASS_REQUIRE(!jobs.empty(), "service trace holds no jobs");
  std::uint64_t total_tasks = 0;
  core::TenantId max_tenant = 0;
  for (const TraceJob& job : jobs) {
    total_tasks += job.task_count;
    max_tenant = std::max(max_tenant, job.tenant);
  }
  OPASS_REQUIRE(total_tasks > 0, "service trace holds no tasks");

  // Same derived-stream convention as the experiment harness: dataset
  // placement draws from a seed-derived stream so the namespace layout is a
  // pure function of (seed, nodes, replication, placement policy).
  Rng placement_rng(cfg.seed * 2654435761ULL + 1);
  dfs::NameNode nn(dfs::Topology::single_rack(cfg.nodes), cfg.replication);
  auto policy = dfs::make_placement(cfg.placement);
  const dfs::FileId fid = workload::store_chunked_dataset(
      nn, "service-dataset", static_cast<std::uint32_t>(total_tasks), *policy,
      placement_rng);
  const std::vector<runtime::Task> all_tasks = runtime::single_input_tasks(nn, {fid});
  const core::ProcessPlacement placement = core::one_process_per_node(nn, cfg.nodes);

  core::ServiceOptions options;
  options.seed = cfg.seed;
  options.batch_window = cfg.batch_window;
  options.fair_share = cfg.fair_share;
  core::PlannerService service(nn, placement, options);

  std::unique_ptr<obs::ServiceTimelineProbe> probe;
  if (cfg.timeline != nullptr) {
    probe =
        std::make_unique<obs::ServiceTimelineProbe>(*cfg.timeline, service, max_tenant + 1);
    service.set_probe(probe.get());
  }

  std::size_t next_task = 0;
  for (const TraceJob& job : jobs) {
    core::JobRequest request;
    request.tenant = job.tenant;
    request.weight = job.weight;
    request.arrival = job.arrival;
    request.tasks.assign(all_tasks.begin() + static_cast<std::ptrdiff_t>(next_task),
                         all_tasks.begin() +
                             static_cast<std::ptrdiff_t>(next_task + job.task_count));
    next_task += job.task_count;
    (void)service.submit(std::move(request));
  }
  service.drain();
  if (cfg.timeline != nullptr) cfg.timeline->finish(service.now());
  if (cfg.metrics != nullptr) obs::collect_service(*cfg.metrics, service);

  ServiceTraceOutput out;
  out.counters = service.counters();
  Bytes local = 0;
  Bytes total = 0;
  std::ostringstream rendered;
  rendered << "# service-trace replay: jobs=" << service.job_count()
           << " batches=" << out.counters.batches << " tasks=" << out.counters.tasks_planned
           << " nodes=" << cfg.nodes << " seed=" << cfg.seed << '\n';
  for (core::JobId id = 1; id <= service.job_count(); ++id) {
    const core::JobStatus& status = service.status(id);
    local += status.local_bytes;
    total += status.total_bytes;
    rendered << render_job(status);
    out.statuses.push_back(status);
  }
  out.local_byte_fraction =
      total ? static_cast<double>(local) / static_cast<double>(total) : 0.0;
  out.rendered = rendered.str();
  if (cfg.spans != nullptr) obs::append_service_spans(*cfg.spans, out.statuses);
  return out;
}

}  // namespace opass::exp
