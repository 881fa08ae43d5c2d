// opass_cli — run any paper scenario from the command line.
//
//   opass_cli --scenario=single --nodes=64 --tasks=640 --method=opass
//   opass_cli --scenario=paraview --method=both --csv
//   opass_cli --scenario=dynamic --nodes=128 --seed=7 --compute=0.4
//   opass_cli --scenario=single --method=opass --audit
//   opass_cli --scenario=single --metrics-out=metrics.json --trace-out=trace.json
//   opass_cli --service-trace=bench/traces/service_small.trace --batch-window=0.5
//   opass_cli --scenario=single --fault-plan=bench/faults/crash.json --method=both
//   opass_cli --scenario=single --threads=4      # same bytes, less wall clock
//
// Fault injection: --fault-plan loads a JSON fault/churn scenario
// (sim/fault_plan.hpp documents the format) and arms it on each run's
// cluster (single, multi and dynamic; paraview and iterative reject it with
// exit code 2) — crashes, stragglers, joins, drains and rebalances play out as
// scripted virtual-time events whose recovery traffic competes with the
// run's reads. The fault summary prints after the method table; fault
// markers join --trace-out as instant events and --report-html/--timeline-out
// as timeline.faults.* series.
//
// Prints the run's headline metrics as a table, or the per-op I/O series as
// CSV with --csv (ready for plotting). With --audit the scenario's plan is
// built but not simulated: the static auditor (plan_audit.hpp) checks the
// assignment's invariants and the exit code reports the verdict.
//
// Observability: --metrics-out writes the run's metric registry (JSON, or
// CSV when the path ends in .csv; byte-identical across runs of one seed),
// --trace-out writes a Chrome trace-event file (open in chrome://tracing or
// ui.perfetto.dev; with --method=both the two methods appear as separate
// process groups), and --hotspots prints the per-node serving report.
// --timeline-out samples the run at --sample-interval virtual seconds and
// writes the series + imbalance analytics as JSON; --report-html renders the
// same data as one self-contained HTML page (inline SVG charts, no external
// assets). Both are byte-identical across runs of one seed. When --trace-out
// is also given, the cluster-wide series join the trace as counter tracks.
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "exp/experiment.hpp"
#include "obs/analytics.hpp"
#include "obs/attribution.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/fault_log.hpp"
#include "obs/hotspot.hpp"
#include "obs/metrics_io.hpp"
#include "obs/report.hpp"
#include "exp/service_trace.hpp"
#include "opass/plan_audit.hpp"

namespace {

using namespace opass;

/// Observability sinks threaded through a run; any member may be null/off.
struct ObsSinks {
  obs::MetricsRegistry* metrics = nullptr;
  obs::ChromeTraceBuilder* trace = nullptr;
  bool hotspots = false;
  /// When set, each run records a timeline (one recorder per method, owned
  /// by `timelines`) and registers a MethodReport with the builder.
  obs::ReportBuilder* report = nullptr;
  std::vector<std::unique_ptr<obs::TimelineRecorder>>* timelines = nullptr;
  double sample_interval = 0.5;
  /// When set, each run records a causal span log (one per method, owned by
  /// `span_logs`) and registers it with the doc builder — the --spans-out /
  /// --critical-path pipeline (DESIGN.md §13).
  obs::SpanDocBuilder* span_doc = nullptr;
  std::vector<std::unique_ptr<obs::SpanLog>>* span_logs = nullptr;
  /// When set, each run arms this fault/churn scenario on its cluster.
  const sim::FaultPlan* faults = nullptr;
};

int run_method(const std::string& scenario, exp::Method method,
               const exp::ExperimentConfig& cfg, std::uint32_t tasks, double compute,
               bool csv, Table& table, const ObsSinks& sinks = {}) {
  exp::ExperimentConfig run_cfg = cfg;
  runtime::ExecutionResult raw;
  run_cfg.metrics = sinks.metrics;
  if (sinks.trace != nullptr || sinks.hotspots || sinks.report != nullptr)
    run_cfg.raw = &raw;
  obs::TimelineRecorder* recorder = nullptr;
  if (sinks.report != nullptr) {
    obs::TimelineRecorder::Options topt;
    topt.interval = sinks.sample_interval;
    recorder = sinks.timelines->emplace_back(
        std::make_unique<obs::TimelineRecorder>(topt)).get();
    run_cfg.timeline = recorder;
  }
  obs::SpanLog* span_log = nullptr;
  if (sinks.span_doc != nullptr) {
    span_log = sinks.span_logs->emplace_back(std::make_unique<obs::SpanLog>()).get();
    run_cfg.spans = span_log;
  }
  std::unique_ptr<obs::FaultEventLog> fault_log;
  sim::FaultStats fault_stats;
  if (sinks.faults != nullptr) {
    fault_log = std::make_unique<obs::FaultEventLog>(recorder);
    run_cfg.faults = sinks.faults;
    run_cfg.fault_probe = fault_log.get();
    run_cfg.fault_stats = &fault_stats;
  }

  exp::RunOutput out;
  if (scenario == "single") {
    out = exp::run_single_data(run_cfg, tasks, method);
  } else if (scenario == "multi") {
    out = exp::run_multi_data(run_cfg, tasks, method);
  } else if (scenario == "dynamic") {
    workload::GenomicsSpec spec;
    spec.mean_compute_time = compute;
    out = exp::run_dynamic(run_cfg, tasks, method, spec);
  } else if (scenario == "paraview") {
    workload::ParaViewSpec spec;
    spec.dataset_count = tasks;
    spec.datasets_per_step = std::min(tasks, cfg.nodes);
    out = exp::run_paraview(run_cfg, method, spec).run;
  } else if (scenario == "iterative") {
    out = exp::run_iterative(run_cfg, tasks, /*epochs=*/4, method, compute).run;
  } else {
    std::fprintf(stderr, "unknown scenario '%s' (single|multi|dynamic|paraview|iterative)\n",
                 scenario.c_str());
    return 1;
  }

  const std::uint32_t pid = method == exp::Method::kBaseline ? 0 : 1;
  if (sinks.trace != nullptr) {
    // One trace process group per method, so --method=both renders both
    // timelines side by side.
    sinks.trace->set_process_name(pid, exp::method_name(method));
    sinks.trace->add_execution(raw, pid);
  }
  if (span_log != nullptr) {
    sinks.span_doc->add_method(exp::method_name(method), *span_log, cfg.nodes);
    // Overlay the critical path's cross-process hops on the Chrome trace as
    // flow arrows — only when both sinks are active, so a plain --trace-out
    // stays byte-identical to earlier releases.
    if (sinks.trace != nullptr)
      obs::add_critical_path_flows(*sinks.trace, *span_log,
                                   sinks.span_doc->path(sinks.span_doc->method_count() - 1),
                                   pid);
  }
  if (recorder != nullptr) {
    obs::MethodReport mr;
    mr.name = exp::method_name(method);
    mr.timeline = recorder;
    mr.analytics = obs::analyze_execution(raw, cfg.nodes);
    mr.makespan = out.makespan;
    mr.local_fraction = out.local_fraction;
    mr.spans = span_log;
    mr.node_count = cfg.nodes;
    sinks.report->add_method(std::move(mr));
    if (sinks.trace != nullptr) obs::add_timeline_counters(*sinks.trace, *recorder, pid);
  }
  if (sinks.hotspots) {
    std::printf("[%s]\n%s\n", exp::method_name(method),
                obs::hotspot_report(raw.trace, cfg.nodes).render().c_str());
  }
  if (fault_log) {
    if (sinks.trace != nullptr) fault_log->add_instants(*sinks.trace, pid);
    if (!csv) {
      std::printf(
          "[%s] faults: crashes=%u slow=%u joins=%u decommissions=%u rebalances=%u "
          "recoveries=%u copies=%u copied_mib=%.1f lost_chunks=%u\n",
          exp::method_name(method), fault_stats.crashes, fault_stats.slowdowns,
          fault_stats.joins, fault_stats.decommissions, fault_stats.rebalances,
          fault_stats.recoveries, fault_stats.replicas_copied,
          to_mib(fault_stats.rereplicated_bytes), fault_stats.lost_chunks);
    }
  }

  if (csv) {
    Table series({"op", "method", "io_time_s"});
    for (std::size_t i = 0; i < out.io_times.size(); ++i)
      series.add_row({Table::integer(static_cast<long long>(i)),
                      exp::method_name(method), Table::num(out.io_times[i], 4)});
    std::fputs(series.csv().c_str(), stdout);
  } else {
    table.add_row({exp::method_name(method), Table::num(out.io.mean, 2),
                   Table::num(out.io.max, 2), Table::num(100 * out.local_fraction, 1),
                   Table::num(jain_fairness(out.served_mb), 3),
                   Table::num(out.makespan, 1)});
  }
  return 0;
}

/// --audit mode: build the scenario's plan exactly as the run would, audit
/// it, print the report. Returns 0 iff the plan is clean.
int audit_method(const std::string& scenario, exp::Method method,
                 const exp::ExperimentConfig& cfg, std::uint32_t tasks) {
  std::optional<exp::PlannedScenario> sc;
  if (scenario == "single") {
    sc = exp::plan_single_data(cfg, tasks, method);
  } else if (scenario == "multi") {
    sc = exp::plan_multi_data(cfg, tasks, method);
  } else {
    std::fprintf(stderr, "--audit supports the static-plan scenarios (single|multi), not '%s'\n",
                 scenario.c_str());
    return 2;
  }
  core::AuditOptions audit_opts;
  // Opass single-data plans must respect the paper's TotalSize/m capacity;
  // the baseline's rank intervals satisfy it too, so gate both.
  audit_opts.enforce_capacity = sc->single_data;
  const auto report = core::audit_plan(sc->nn, sc->tasks, sc->assignment, sc->placement,
                                       audit_opts);
  std::printf("audit %s/%s (n=%zu tasks, m=%zu processes): %s", scenario.c_str(),
              exp::method_name(method), sc->tasks.size(), sc->placement.size(),
              report.to_string().c_str());
  return report.ok() ? 0 : 1;
}

/// --service-trace mode: replay a job-arrival trace through the planning
/// service (no cluster simulation). Prints the replay summary; --service-out
/// writes the deterministic per-job assignment rendering, --metrics-out the
/// service counters, --timeline-out the sampled service series.
int run_service_trace(const std::string& trace_path, const exp::ExperimentConfig& cfg,
                      const Options& opts) {
  exp::ServiceTraceConfig scfg;
  scfg.nodes = cfg.nodes;
  scfg.replication = cfg.replication;
  scfg.seed = cfg.seed;
  scfg.placement = cfg.placement;
  scfg.batch_window = opts.real("batch-window");
  scfg.fair_share = opts.boolean("fair-share");

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::TimelineRecorder> recorder;
  obs::SpanLog span_log;
  const std::string metrics_out = opts.str("metrics-out");
  const std::string timeline_out = opts.str("timeline-out");
  const std::string spans_out = opts.str("spans-out");
  const std::string critical_path_out = opts.str("critical-path");
  if (!metrics_out.empty()) scfg.metrics = &registry;
  if (!spans_out.empty() || !critical_path_out.empty()) scfg.spans = &span_log;
  if (!timeline_out.empty()) {
    obs::TimelineRecorder::Options topt;
    topt.interval = opts.real("sample-interval");
    if (!(topt.interval > 0)) {
      std::fprintf(stderr, "sample-interval must be positive\n");
      return 2;
    }
    recorder = std::make_unique<obs::TimelineRecorder>(topt);
    scfg.timeline = recorder.get();
  }

  exp::ServiceTraceOutput out;
  try {
    out = exp::replay_service_trace(scfg, exp::load_service_trace(trace_path));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf("service-trace=%s nodes=%u r=%u seed=%llu window=%g fair-share=%s\n\n",
              trace_path.c_str(), cfg.nodes, cfg.replication,
              static_cast<unsigned long long>(cfg.seed), scfg.batch_window,
              scfg.fair_share ? "on" : "off");
  Table table({"jobs", "batches", "tasks", "matched", "filled", "local %",
               "max batch", "max queue"});
  table.add_row({Table::integer(static_cast<long long>(out.counters.jobs_planned)),
                 Table::integer(out.counters.batches),
                 Table::integer(static_cast<long long>(out.counters.tasks_planned)),
                 Table::integer(static_cast<long long>(out.counters.locally_matched)),
                 Table::integer(static_cast<long long>(out.counters.randomly_filled)),
                 Table::num(100 * out.local_byte_fraction, 1),
                 Table::integer(out.counters.max_batch_tasks),
                 Table::integer(out.counters.max_queue_depth)});
  std::fputs(table.render().c_str(), stdout);

  int rc = 0;
  const auto flush = [&rc](const std::string& path, const std::string& body) {
    const obs::IoStatus st = obs::write_file(path, body);
    if (!st.ok) {
      std::fprintf(stderr, "error: %s\n", st.message.c_str());
      rc |= 1;
    }
  };
  const std::string service_out = opts.str("service-out");
  if (!service_out.empty()) flush(service_out, out.rendered);
  if (!metrics_out.empty()) {
    const obs::IoStatus st = obs::write_metrics(registry, metrics_out);
    if (!st.ok) {
      std::fprintf(stderr, "error: %s\n", st.message.c_str());
      rc |= 1;
    }
  }
  if (!timeline_out.empty()) {
    obs::ReportBuilder builder;
    obs::MethodReport mr;
    mr.name = "service";
    mr.timeline = recorder.get();
    mr.makespan = recorder->end_time();
    mr.local_fraction = out.local_byte_fraction;
    builder.add_method(std::move(mr));
    flush(timeline_out, builder.timeline_json());
  }
  if (scfg.spans != nullptr) {
    obs::SpanDocBuilder doc;
    doc.add_method("service", span_log, /*node_count=*/0);
    if (!spans_out.empty()) flush(spans_out, doc.spans_json());
    if (!critical_path_out.empty()) {
      const bool json = critical_path_out.size() >= 5 &&
                        critical_path_out.rfind(".json") == critical_path_out.size() - 5;
      flush(critical_path_out,
            json ? doc.critical_path_json() : doc.critical_path_text());
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.add("scenario", "single", "single | multi | dynamic | paraview | iterative")
      .add("method", "both", "baseline | opass | both")
      .add("nodes", "64", "cluster size m")
      .add("tasks", "640", "tasks / chunk files / datasets")
      .add("replication", "3", "replication factor r")
      .add("seed", "42", "experiment seed")
      .add("compute", "0.0", "mean compute seconds per task (dynamic scenario)")
      .add("placement", "random", "random | hdfs-default | round-robin | spread")
      .add("fault-plan", "",
           "JSON fault/churn scenario armed on each run's cluster (single|multi|dynamic)")
      .add("threads", "1",
           "worker-pool lanes for the simulator/executor/planner hot paths; "
           "output is byte-identical for every value (1 = serial)")
      .add("csv", "false", "emit per-op I/O times as CSV instead of the summary table")
      .add("audit", "false", "audit the scenario's plan statically instead of simulating")
      .add("metrics-out", "", "write run metrics to this path (.csv => CSV, else JSON)")
      .add("trace-out", "", "write a Chrome trace-event JSON file to this path")
      .add("timeline-out", "", "write sampled time series + analytics JSON to this path")
      .add("report-html", "", "write a self-contained HTML run report to this path")
      .add("sample-interval", "0.5", "timeline sampling period in virtual seconds")
      .add("spans-out", "", "write the causal span log + attribution JSON to this path")
      .add("critical-path", "",
           "write the makespan's critical path to this path (.json => JSON, else text)")
      .add("hotspots", "false", "print the per-node serving hotspot report")
      .add("service-trace", "", "replay a job-arrival trace through the planning service")
      .add("batch-window", "0.0", "service coalescing window in virtual seconds")
      .add("fair-share", "true", "per-tenant fair share of the service's locality budget")
      .add("service-out", "", "write the replay's per-job assignment rendering to this path")
      .add("help", "false", "show usage");
  if (!opts.parse(argc, argv) || opts.boolean("help")) {
    if (!opts.error().empty()) std::fprintf(stderr, "error: %s\n", opts.error().c_str());
    std::fputs(opts.usage("opass_cli").c_str(), stderr);
    return opts.boolean("help") ? 0 : 2;
  }

  exp::ExperimentConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(opts.integer("nodes"));
  cfg.replication = static_cast<std::uint32_t>(opts.integer("replication"));
  cfg.seed = static_cast<std::uint64_t>(opts.integer("seed"));
  const std::string placement = opts.str("placement");
  if (placement == "hdfs-default") {
    cfg.placement = dfs::PlacementKind::kHdfsDefault;
  } else if (placement == "round-robin") {
    cfg.placement = dfs::PlacementKind::kRoundRobin;
  } else if (placement == "spread") {
    cfg.placement = dfs::PlacementKind::kSpread;
  } else if (placement != "random") {
    std::fprintf(stderr, "unknown placement '%s'\n", placement.c_str());
    return 2;
  }
  const long long threads = opts.integer("threads");
  if (threads < 1) {
    std::fprintf(stderr, "threads must be >= 1\n");
    return 2;
  }
  cfg.threads = static_cast<std::uint32_t>(threads);
  // One pool for the whole invocation (instead of one per run_* call): lane
  // stats accumulate across methods for the --hotspots lane report, and the
  // workers spin up once. Output stays byte-identical either way.
  std::unique_ptr<ThreadPool> pool;
  if (cfg.threads > 1) {
    pool = std::make_unique<ThreadPool>(cfg.threads);
    cfg.pool = pool.get();
  }

  const std::string service_trace = opts.str("service-trace");
  if (!service_trace.empty()) return run_service_trace(service_trace, cfg, opts);

  std::optional<sim::FaultPlan> fault_plan;
  const std::string fault_plan_path = opts.str("fault-plan");
  if (!fault_plan_path.empty()) {
    try {
      fault_plan = sim::load_fault_plan(fault_plan_path);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  const std::string scenario = opts.str("scenario");
  if (fault_plan && (scenario == "paraview" || scenario == "iterative")) {
    std::fprintf(stderr,
                 "error: --fault-plan is not supported with --scenario=%s "
                 "(single|multi|dynamic)\n",
                 scenario.c_str());
    return 2;
  }
  const std::string method = opts.str("method");
  const auto tasks = static_cast<std::uint32_t>(opts.integer("tasks"));
  const double compute = opts.real("compute");
  const bool csv = opts.boolean("csv");

  if (opts.boolean("audit")) {
    if (method != "baseline" && method != "opass" && method != "both") {
      std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
      return 2;
    }
    int rc = 0;
    if (method == "baseline" || method == "both")
      rc |= audit_method(scenario, exp::Method::kBaseline, cfg, tasks);
    if (method == "opass" || method == "both")
      rc |= audit_method(scenario, exp::Method::kOpass, cfg, tasks);
    return rc;
  }

  const std::string metrics_out = opts.str("metrics-out");
  const std::string trace_out = opts.str("trace-out");
  const std::string timeline_out = opts.str("timeline-out");
  const std::string report_html = opts.str("report-html");
  const std::string spans_out = opts.str("spans-out");
  const std::string critical_path_out = opts.str("critical-path");
  obs::MetricsRegistry registry;
  obs::ChromeTraceBuilder trace_builder;
  obs::ReportBuilder report_builder;
  obs::SpanDocBuilder span_doc;
  std::vector<std::unique_ptr<obs::TimelineRecorder>> timelines;
  std::vector<std::unique_ptr<obs::SpanLog>> span_logs;
  ObsSinks sinks;
  if (!metrics_out.empty()) sinks.metrics = &registry;
  if (!trace_out.empty()) sinks.trace = &trace_builder;
  if (!spans_out.empty() || !critical_path_out.empty()) {
    sinks.span_doc = &span_doc;
    sinks.span_logs = &span_logs;
  }
  if (!timeline_out.empty() || !report_html.empty()) {
    sinks.report = &report_builder;
    sinks.timelines = &timelines;
    sinks.sample_interval = opts.real("sample-interval");
    if (!(sinks.sample_interval > 0)) {
      std::fprintf(stderr, "sample-interval must be positive\n");
      return 2;
    }
  }
  sinks.hotspots = opts.boolean("hotspots");
  if (fault_plan) sinks.faults = &*fault_plan;

  Table table({"method", "avg I/O (s)", "max I/O (s)", "local %", "Jain", "makespan (s)"});
  int rc = 0;
  if (method == "baseline" || method == "both")
    rc |= run_method(scenario, exp::Method::kBaseline, cfg, tasks, compute, csv, table, sinks);
  if (method == "opass" || method == "both")
    rc |= run_method(scenario, exp::Method::kOpass, cfg, tasks, compute, csv, table, sinks);
  if (method != "baseline" && method != "opass" && method != "both") {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 2;
  }
  if (!csv && table.rows() > 0) {
    std::printf("scenario=%s nodes=%u tasks=%u r=%u seed=%llu placement=%s\n\n",
                scenario.c_str(), cfg.nodes, tasks, cfg.replication,
                static_cast<unsigned long long>(cfg.seed),
                dfs::placement_kind_name(cfg.placement));
    std::fputs(table.render().c_str(), stdout);
  }
  if (sinks.hotspots && pool != nullptr)
    std::printf("\n%s", obs::pool_lane_report(*pool).c_str());

  if (!metrics_out.empty()) {
    const obs::IoStatus st = obs::write_metrics(registry, metrics_out);
    if (!st.ok) {
      std::fprintf(stderr, "error: %s\n", st.message.c_str());
      rc |= 1;
    }
  }
  if (!trace_out.empty()) {
    const obs::IoStatus st = obs::write_file(trace_out, trace_builder.json());
    if (!st.ok) {
      std::fprintf(stderr, "error: %s\n", st.message.c_str());
      rc |= 1;
    }
  }
  if (!timeline_out.empty()) {
    const obs::IoStatus st = obs::write_file(timeline_out, report_builder.timeline_json());
    if (!st.ok) {
      std::fprintf(stderr, "error: %s\n", st.message.c_str());
      rc |= 1;
    }
  }
  if (!report_html.empty()) {
    const obs::IoStatus st = obs::write_file(report_html, report_builder.html());
    if (!st.ok) {
      std::fprintf(stderr, "error: %s\n", st.message.c_str());
      rc |= 1;
    }
  }
  if (!spans_out.empty()) {
    const obs::IoStatus st = obs::write_file(spans_out, span_doc.spans_json());
    if (!st.ok) {
      std::fprintf(stderr, "error: %s\n", st.message.c_str());
      rc |= 1;
    }
  }
  if (!critical_path_out.empty()) {
    const bool json = critical_path_out.size() >= 5 &&
                      critical_path_out.rfind(".json") == critical_path_out.size() - 5;
    const obs::IoStatus st = obs::write_file(
        critical_path_out, json ? span_doc.critical_path_json() : span_doc.critical_path_text());
    if (!st.ok) {
      std::fprintf(stderr, "error: %s\n", st.message.c_str());
      rc |= 1;
    }
  }
  return rc;
}
