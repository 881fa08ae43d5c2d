// opass_cli — run any paper scenario from the command line.
//
//   opass_cli --scenario=single --nodes=64 --tasks=640 --method=opass
//   opass_cli --scenario=paraview --method=both --csv
//   opass_cli --scenario=dynamic --nodes=128 --seed=7 --compute=0.4
//   opass_cli --scenario=single --method=opass --audit
//   opass_cli --scenario=single --metrics-out=metrics.json --trace-out=trace.json
//   opass_cli --service-trace=bench/traces/service_small.trace --batch-window=0.5
//   opass_cli --scenario=single --fault-plan=bench/faults/crash.json --method=both
//
// Fault injection: --fault-plan loads a JSON fault/churn scenario
// (sim/fault_plan.hpp documents the format) and arms it once on each run's
// cluster, in every scenario (a ParaView or iterative run's steps and
// epochs share the one plan) — crashes, stragglers, joins, drains and
// rebalances play out as scripted virtual-time events whose recovery
// traffic competes with the run's reads. The fault summary prints after the
// method table; fault markers join --trace-out as instant events and
// --report-html/--timeline-out as timeline.faults.* series.
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
//
// Usage errors exit 2 with a message naming the flag: a malformed or
// out-of-range number (--nodes=-1, --tasks=abc, --replication above
// --nodes), and any flag the chosen mode never reads set to a non-default
// value ("--csv has no effect with --service-trace").
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"
#include "exp/service_trace.hpp"
#include "obs/analytics.hpp"
#include "obs/attribution.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/fault_log.hpp"
#include "obs/hotspot.hpp"
#include "obs/metrics_io.hpp"
#include "obs/report.hpp"
#include "opass/plan_audit.hpp"

namespace {

using namespace opass;

bool given(const Options& opts, const char* flag) { return !opts.str(flag).empty(); }

/// Everything one invocation renders: the sinks its runs feed, the
/// per-method recorders and span logs those sinks borrow, and the service
/// replay's assignment rendering.
struct Outputs {
  obs::MetricsRegistry metrics;
  obs::ChromeTraceBuilder trace;
  obs::ReportBuilder report;
  obs::SpanDocBuilder span_doc;
  std::vector<std::unique_ptr<obs::TimelineRecorder>> timelines;
  std::vector<std::unique_ptr<obs::SpanLog>> span_logs;
  std::string service;

  /// The one artifact writer of the scenario and --service-trace paths:
  /// renders and writes each document whose flag names a path — metrics as
  /// CSV when the path ends in .csv (else JSON), the critical path as JSON
  /// when it ends in .json (else text). Returns 1 if any write failed.
  int write(const Options& opts) const {
    int rc = 0;
    const auto put = [&](const char* flag, const auto& render) {
      const std::string path = opts.str(flag);
      if (path.empty()) return;
      const obs::IoStatus st = obs::write_file(path, render(path));
      if (!st.ok) {
        std::fprintf(stderr, "error: %s\n", st.message.c_str());
        rc = 1;
      }
    };
    put("service-out", [&](const std::string&) { return service; });
    put("metrics-out", [&](const std::string& path) {
      return path.ends_with(".csv") ? obs::to_csv(metrics) : obs::to_json(metrics);
    });
    put("trace-out", [&](const std::string&) { return trace.json(); });
    put("timeline-out", [&](const std::string&) { return report.timeline_json(); });
    put("report-html", [&](const std::string&) { return report.html(); });
    put("spans-out", [&](const std::string&) { return span_doc.spans_json(); });
    put("critical-path", [&](const std::string& path) {
      return path.ends_with(".json") ? span_doc.critical_path_json()
                                     : span_doc.critical_path_text();
    });
    return rc;
  }

  /// A recorder for one run when --timeline-out or --report-html asks for
  /// one (null otherwise).
  obs::TimelineRecorder* add_timeline(const Options& opts) {
    if (!given(opts, "timeline-out") && !given(opts, "report-html")) return nullptr;
    return timelines
        .emplace_back(std::make_unique<obs::TimelineRecorder>(opts.real("sample-interval")))
        .get();
  }

  /// A span log for one run when --spans-out or --critical-path asks for
  /// one (null otherwise).
  obs::SpanLog* add_span_log(const Options& opts) {
    if (!given(opts, "spans-out") && !given(opts, "critical-path")) return nullptr;
    return span_logs.emplace_back(std::make_unique<obs::SpanLog>()).get();
  }
};

/// One method of the chosen scenario, run with the sinks the flags arm:
/// adds the method's table row (or, with --csv, prints its I/O series).
void run_method(const Options& opts, exp::Method method, exp::ExperimentConfig cfg,
                const sim::FaultPlan* faults, Outputs& out, Table& table) {
  const std::string scenario = opts.str("scenario");
  const auto tasks = opts.unsigned_integer("tasks", 1);
  const double compute = opts.real("compute");
  const bool csv = opts.boolean("csv");
  const bool trace = given(opts, "trace-out");
  const bool hotspots = opts.boolean("hotspots");
  runtime::ExecutionResult raw;
  if (given(opts, "metrics-out")) cfg.metrics = &out.metrics;
  obs::TimelineRecorder* recorder = out.add_timeline(opts);
  cfg.timeline = recorder;
  if (trace || hotspots || recorder != nullptr) cfg.raw = &raw;
  obs::SpanLog* span_log = out.add_span_log(opts);
  cfg.spans = span_log;
  std::optional<obs::FaultEventLog> fault_log;
  sim::FaultStats fault_stats;
  if (faults != nullptr) {
    fault_log.emplace(*faults, recorder);
    cfg.faults = faults;
    cfg.fault_probe = &*fault_log;
    cfg.fault_stats = &fault_stats;
  }

  exp::RunOutput run;
  if (scenario == "single") {
    run = exp::run_single_data(cfg, tasks, method);
  } else if (scenario == "multi") {
    run = exp::run_multi_data(cfg, tasks, method);
  } else if (scenario == "dynamic") {
    workload::GenomicsSpec spec;
    spec.mean_compute_time = compute;
    run = exp::run_dynamic(cfg, tasks, method, spec);
  } else if (scenario == "paraview") {
    workload::ParaViewSpec spec;
    spec.dataset_count = tasks;
    spec.datasets_per_step = std::min(tasks, cfg.nodes);
    run = exp::run_paraview(cfg, method, spec).run;
  } else {
    run = exp::run_iterative(cfg, tasks, /*epochs=*/4, method, compute).run;
  }

  const char* name = exp::method_name(method);
  const std::uint32_t pid = method == exp::Method::kBaseline ? 0 : 1;
  // The node count after the run, so a node a fault plan joined is counted.
  const auto node_count = static_cast<std::uint32_t>(run.served_mb.size());
  if (trace) {
    // One trace process group per method, so --method=both renders both
    // timelines side by side.
    out.trace.set_process_name(pid, name);
    out.trace.add_execution(raw, pid);
  }
  if (span_log != nullptr) {
    out.span_doc.add_method(name, *span_log, node_count);
    // Overlay the critical path's cross-process hops on the Chrome trace as
    // flow arrows — only when both sinks are active, so a plain --trace-out
    // stays byte-identical to earlier releases.
    if (trace)
      obs::add_critical_path_flows(out.trace, *span_log,
                                   out.span_doc.path(out.span_doc.method_count() - 1), pid);
  }
  if (recorder != nullptr) {
    obs::MethodReport mr;
    mr.name = name;
    mr.timeline = recorder;
    mr.analytics = obs::analyze_execution(raw, node_count);
    mr.makespan = run.makespan;
    mr.local_fraction = run.local_fraction;
    mr.spans = span_log;
    mr.node_count = node_count;
    out.report.add_method(std::move(mr));
    if (trace) obs::add_timeline_counters(out.trace, *recorder, pid);
  }
  if (hotspots) {
    std::printf("[%s]\n%s\n", name,
                obs::hotspot_report(raw.trace, node_count).render().c_str());
  }
  if (fault_log) {
    if (trace) fault_log->add_instants(out.trace, pid);
    if (!csv) {
      std::printf(
          "[%s] faults: crashes=%u slow=%u joins=%u decommissions=%u rebalances=%u "
          "recoveries=%u copies=%u copied_mib=%.1f lost_chunks=%u\n",
          name, fault_stats.crashes, fault_stats.slowdowns, fault_stats.joins,
          fault_stats.decommissions, fault_stats.rebalances, fault_stats.recoveries,
          fault_stats.replicas_copied, to_mib(fault_stats.rereplicated_bytes),
          fault_stats.lost_chunks);
    }
  }

  if (csv) {
    Table series({"op", "method", "io_time_s"});
    for (std::size_t i = 0; i < run.io_times.size(); ++i)
      series.add_row({Table::integer(static_cast<long long>(i)), name,
                      Table::num(run.io_times[i], 4)});
    std::fputs(series.csv().c_str(), stdout);
  } else {
    table.add_row({name, Table::num(run.io.mean, 2), Table::num(run.io.max, 2),
                   Table::num(100 * run.local_fraction, 1),
                   Table::num(jain_fairness(run.served_mb), 3), Table::num(run.makespan, 1)});
  }
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
int run_service_trace(const Options& opts, const exp::ExperimentConfig& cfg, Outputs& out) {
  const std::string trace_path = opts.str("service-trace");
  exp::ServiceTraceConfig scfg;
  scfg.nodes = cfg.nodes;
  scfg.replication = cfg.replication;
  scfg.seed = cfg.seed;
  scfg.placement = cfg.placement;
  scfg.batch_window = opts.real("batch-window");
  if (!(scfg.batch_window >= 0)) {
    std::fprintf(stderr, "error: --batch-window must be non-negative\n");
    return 2;
  }
  scfg.fair_share = opts.boolean("fair-share");
  if (given(opts, "metrics-out")) scfg.metrics = &out.metrics;
  scfg.timeline = out.add_timeline(opts);
  scfg.spans = out.add_span_log(opts);
  auto replay = exp::replay_service_trace(scfg, exp::load_service_trace(trace_path));

  std::printf("service-trace=%s nodes=%u r=%u seed=%llu window=%g fair-share=%s\n\n",
              trace_path.c_str(), cfg.nodes, cfg.replication,
              static_cast<unsigned long long>(cfg.seed), scfg.batch_window,
              scfg.fair_share ? "on" : "off");
  Table table({"jobs", "batches", "tasks", "matched", "filled", "local %",
               "max batch", "max queue"});
  table.add_row({Table::integer(static_cast<long long>(replay.counters.jobs_planned)),
                 Table::integer(replay.counters.batches),
                 Table::integer(static_cast<long long>(replay.counters.tasks_planned)),
                 Table::integer(static_cast<long long>(replay.counters.locally_matched)),
                 Table::integer(static_cast<long long>(replay.counters.randomly_filled)),
                 Table::num(100 * replay.local_byte_fraction, 1),
                 Table::integer(replay.counters.max_batch_tasks),
                 Table::integer(replay.counters.max_queue_depth)});
  std::fputs(table.render().c_str(), stdout);

  out.service = std::move(replay.rendered);
  if (scfg.timeline != nullptr) {
    obs::MethodReport mr;
    mr.name = "service";
    mr.timeline = scfg.timeline;
    mr.makespan = scfg.timeline->end_time();
    mr.local_fraction = replay.local_byte_fraction;
    out.report.add_method(std::move(mr));
  }
  if (scfg.spans != nullptr) out.span_doc.add_method("service", *scfg.spans, /*node_count=*/0);
  return out.write(opts);
}

int run(int argc, char** argv) {
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
           "JSON fault/churn scenario armed once on each run's cluster")
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

  // Every knob either works in the chosen mode or is rejected: a flag the
  // mode never reads, set to a non-default value, is a usage error.
  const std::string scenario = opts.str("scenario");
  std::string mode;
  std::vector<const char*> unread;
  if (given(opts, "service-trace")) {
    mode = "--service-trace";
    unread = {"scenario", "method", "tasks", "compute", "fault-plan", "csv", "audit",
              "trace-out", "report-html", "hotspots"};
  } else if (opts.boolean("audit")) {
    mode = "--audit";
    unread = {"compute", "fault-plan", "csv", "metrics-out", "trace-out", "timeline-out",
              "report-html", "sample-interval", "spans-out", "critical-path", "hotspots",
              "batch-window", "fair-share", "service-out"};
  } else {
    mode = "--scenario=" + scenario;
    unread = {"batch-window", "fair-share", "service-out"};
    if (scenario != "dynamic" && scenario != "iterative") unread.push_back("compute");
  }
  const auto reject = [](const char* flag, const std::string& why) {
    std::fprintf(stderr, "error: --%s has no effect %s\n", flag, why.c_str());
    return 2;
  };
  for (const char* flag : unread)
    if (!opts.is_default(flag)) return reject(flag, "with " + mode);
  // Two flags shape one output each: the hotspot report, which --csv's
  // series-only stream leaves out, and the timeline sinks' sampling.
  if (opts.boolean("csv") && !opts.is_default("hotspots")) return reject("hotspots", "with --csv");
  if (!given(opts, "timeline-out") && !given(opts, "report-html") &&
      !opts.is_default("sample-interval"))
    return reject("sample-interval", "without --timeline-out or --report-html");

  exp::ExperimentConfig cfg;
  cfg.nodes = opts.unsigned_integer("nodes", 1);
  cfg.replication = opts.unsigned_integer("replication", 1, cfg.nodes);
  cfg.seed = opts.unsigned_integer<std::uint64_t>("seed");
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
  if ((given(opts, "timeline-out") || given(opts, "report-html")) &&
      !(opts.real("sample-interval") > 0)) {
    std::fprintf(stderr, "sample-interval must be positive\n");
    return 2;
  }
  Outputs out;
  if (mode == "--service-trace") return run_service_trace(opts, cfg, out);

  const std::string method = opts.str("method");
  if (method != "baseline" && method != "opass" && method != "both") {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 2;
  }
  std::vector<exp::Method> methods;
  if (method != "opass") methods.push_back(exp::Method::kBaseline);
  if (method != "baseline") methods.push_back(exp::Method::kOpass);

  if (opts.boolean("audit")) {
    const auto tasks = opts.unsigned_integer("tasks", 1);
    int rc = 0;
    for (exp::Method m : methods) rc |= audit_method(scenario, m, cfg, tasks);
    return rc;
  }

  if (scenario != "single" && scenario != "multi" && scenario != "dynamic" &&
      scenario != "paraview" && scenario != "iterative") {
    std::fprintf(stderr, "unknown scenario '%s' (single|multi|dynamic|paraview|iterative)\n",
                 scenario.c_str());
    return 2;
  }
  if (!(opts.real("compute") >= 0)) {
    std::fprintf(stderr, "error: --compute must be non-negative\n");
    return 2;
  }
  std::optional<sim::FaultPlan> fault_plan;
  if (given(opts, "fault-plan")) fault_plan = sim::load_fault_plan(opts.str("fault-plan"));

  Table table({"method", "avg I/O (s)", "max I/O (s)", "local %", "Jain", "makespan (s)"});
  for (exp::Method m : methods)
    run_method(opts, m, cfg, fault_plan ? &*fault_plan : nullptr, out, table);
  if (!opts.boolean("csv")) {
    std::printf("scenario=%s nodes=%u tasks=%u r=%u seed=%llu placement=%s\n\n",
                scenario.c_str(), cfg.nodes, opts.unsigned_integer("tasks", 1),
                cfg.replication, static_cast<unsigned long long>(cfg.seed),
                dfs::placement_kind_name(cfg.placement));
    std::fputs(table.render().c_str(), stdout);
  }
  return out.write(opts);
}

}  // namespace

int main(int argc, char** argv) {
  // Malformed flag values, fault plans and service traces throw
  // std::invalid_argument naming what is wrong: a usage error, not a crash.
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
