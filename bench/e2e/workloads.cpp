#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dfs/placement.hpp"
#include "dfs/topology.hpp"
#include "exp/experiment.hpp"
#include "obs/analytics.hpp"
#include "obs/attribution.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/collect.hpp"
#include "obs/metrics_io.hpp"
#include "obs/report.hpp"
#include "obs/spans.hpp"
#include "obs/timeline.hpp"
#include "opass/opass.hpp"
#include "runtime/task_source.hpp"
#include "sim/fault_plan.hpp"
#include "sim/heartbeat.hpp"
#include "workload/dataset.hpp"
#include "workload/genomics.hpp"

namespace opass::bench {

// --- Digest / Tracer ---------------------------------------------------------

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ULL;
  }
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.run = static_cast<std::uint32_t>(tracer_->run_names_.size() - 1);
  span.parent = tracer_->open_.back();
  index_ = static_cast<std::uint32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  tracer_->spans_[index_].start_ns = now_ns();
}

Tracer::Scope& Tracer::Scope::operator=(Scope&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = std::exchange(other.tracer_, nullptr);
    index_ = other.index_;
  }
  return *this;
}

void Tracer::Scope::end() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = now_ns();
  if (tracer_->open_.back() != index_) {
    std::fprintf(stderr, "opass_bench: span '%s' closed out of order\n",
                 tracer_->spans_[index_].name.c_str());
    std::abort();
  }
  tracer_->open_.pop_back();
  tracer_ = nullptr;
}

void Tracer::begin_run(const std::string& workload) {
  run_names_.push_back(workload);
  run_ = Run{};
  run_first_ = spans_.size();
  Span root;
  root.name = "bench.run";
  root.run = static_cast<std::uint32_t>(run_names_.size() - 1);
  spans_.push_back(std::move(root));
  open_.assign(1, static_cast<std::uint32_t>(run_first_));
  spans_.back().start_ns = now_ns();
}

Tracer::Run Tracer::end_run() {
  spans_[run_first_].end_ns = now_ns();
  open_.clear();
  const auto duration = [](const Span& s) { return s.end_ns - s.start_ns; };
  std::vector<std::int64_t> child_ns(spans_.size() - run_first_, 0);
  for (std::size_t i = run_first_ + 1; i < spans_.size(); ++i)
    child_ns[spans_[i].parent - run_first_] += duration(spans_[i]);
  std::int64_t bench_ns = 0;
  for (std::size_t i = run_first_; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name.rfind("bench.", 0) == 0) {
      if (i != run_first_) bench_ns += duration(s);
      continue;
    }
    const std::int64_t self = duration(s) - child_ns[i - run_first_] - s.charged_ns;
    run_.values[s.name + "_ms"] += static_cast<double>(self) / 1e6;
  }
  run_.total_ms = static_cast<double>(duration(spans_[run_first_]) - bench_ns) / 1e6;
  if (run_names_.size() > kExportedRuns) spans_.resize(run_first_);
  return std::move(run_);
}

void Tracer::charge(const char* layer, std::int64_t ns) {
  spans_[open_.back()].charged_ns += ns;
  run_.values[std::string(layer) + "_ms"] += static_cast<double>(ns) / 1e6;
}

std::string Tracer::chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
       << "\", \"cat\": \"host\", \"ph\": \"X\", " << buf
       << ", \"pid\": 1, \"tid\": 1, \"args\": {\"workload\": \"" << run_names_[s.run]
       << "\", \"run\": " << s.run << ", \"span\": " << i << ", \"parent\": "
       << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent)) << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return os.str();
}

namespace {

// --- shared pieces -----------------------------------------------------------

/// The experiment harness's derived RNG streams (exp::Streams): k = 1
/// placement, 2 assignment, 3 execution, 4 faults.
Rng stream(std::uint64_t seed, std::uint64_t k) { return Rng(seed * 2654435761ULL + k); }

dfs::NameNode make_namenode(std::uint32_t nodes) {
  return dfs::NameNode(dfs::Topology::single_rack(nodes), 3, kDefaultChunkSize);
}

/// exp::reduce, call for call: the trace reductions behind RunOutput.
exp::RunOutput reduce(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                      const runtime::ExecutionResult& exec,
                      const core::ProcessPlacement& placement,
                      const runtime::Assignment& assignment) {
  exp::RunOutput out;
  out.io = summarize(exec.trace.io_times());
  out.io_times = exec.trace.io_times_by_issue();
  for (Bytes b : exec.trace.bytes_served_per_node(nn.node_count()))
    out.served_mb.push_back(to_mib(b));
  out.local_fraction = exec.trace.local_fraction();
  out.makespan = exec.makespan;
  out.tasks_executed = exec.tasks_executed;
  out.planned_local_fraction =
      core::evaluate_assignment(nn, tasks, assignment, placement).local_fraction();
  return out;
}

void digest_run(Digest& d, const exp::RunOutput& out) {
  d.f64(out.makespan);
  d.u64(out.tasks_executed);
  d.f64(out.local_fraction);
  d.f64(out.planned_local_fraction);
  d.u64(out.io_times.size());
  for (double t : out.io_times) d.f64(t);
  d.u64(out.served_mb.size());
  for (double mb : out.served_mb) d.f64(mb);
}

/// Exactly-once completion and byte conservation of a one-chunk-per-task run.
std::string check_run(const exp::RunOutput& out, std::uint32_t tasks) {
  if (out.tasks_executed != tasks || out.io_times.size() != tasks)
    return "executed " + std::to_string(out.tasks_executed) + " tasks and " +
           std::to_string(out.io_times.size()) + " reads, want " + std::to_string(tasks);
  double served = 0;
  for (double mb : out.served_mb) served += mb;
  const double want = static_cast<double>(tasks) * to_mib(kDefaultChunkSize);
  if (served != want)
    return "served " + std::to_string(served) + " MiB, want " + std::to_string(want);
  return {};
}

/// Counts of the executor and simulator layers, read from the registries
/// obs::collect_execution / obs::collect_cluster fill under `prefix`.
void count_sim(Tracer& t, const obs::MetricsRegistry& reg, const std::string& prefix,
               std::uint32_t nodes) {
  const auto counter = [&](const std::string& name) {
    return static_cast<double>(reg.at(prefix + name).counter);
  };
  const auto gauge = [&](const std::string& name) { return reg.at(prefix + name).gauge; };
  t.add("runtime.reads_total", counter(".executor.reads_total"));
  t.add("runtime.reads_local", counter(".executor.reads_local"));
  t.add("runtime.read_failures", counter(".executor.read_failures"));
  const double recomputes = counter(".cluster.sim.rate_recomputes");
  const double touched = counter(".cluster.sim.rate_recompute_touched_flows");
  t.add("sim.rate_recomputes", recomputes);
  t.add("sim.relevel_touched_flows", touched);
  t.add("sim.touched_per_recompute", recomputes > 0 ? touched / recomputes : 0.0);
  t.add("sim.max_relevel_component", gauge(".cluster.sim.max_relevel_component"));
  t.add("sim.eta_stale_pops", counter(".cluster.sim.eta_stale_pops"));
  t.add("sim.peak_active_flows", gauge(".cluster.sim.peak_active_flows"));
  double peak = 0;
  for (std::uint32_t n = 0; n < nodes; ++n)
    peak = std::max(peak, gauge(".cluster.node." + std::to_string(n) + ".disk_peak_load"));
  t.add("sim.disk_peak_load_max", peak);
}

void count_sim(Tracer& t, const runtime::ExecutionResult& exec, const sim::Cluster& cluster,
               const std::string& prefix, std::uint32_t nodes) {
  Tracer::Scope span(&t, "bench.counts");
  obs::MetricsRegistry reg;
  obs::collect_execution(reg, exec, nodes, prefix + ".executor");
  obs::collect_cluster(reg, cluster, prefix + ".cluster");
  count_sim(t, reg, prefix, nodes);
}

void count_plan(Tracer& t, const core::PlanResult& result, std::size_t tasks) {
  t.add("opass.match_ms", result.plan_wall_ms);
  t.add("opass.stats_ms", result.stats_wall_ms);
  t.add("opass.locally_matched", result.locally_matched);
  t.add("opass.randomly_filled", result.randomly_filled);
  t.add("opass.local_match_frac",
        static_cast<double>(result.locally_matched) / static_cast<double>(tasks));
}

// --- single-data (single-contended, single-opass, sinks-on) -----------------

/// The sinks `opass_cli --metrics-out --trace-out --spans-out --critical-path
/// --report-html` arms for one method, rendered to in-memory strings the way
/// its run_method() and main() do (nothing touches the disk).
struct Sinks {
  obs::MetricsRegistry registry;
  runtime::ExecutionResult raw;
  obs::TimelineRecorder recorder;  // --sample-interval default (0.5 s)
  obs::SpanLog spans;

  /// Everything after the exp::run_* call: render the five artifacts, then
  /// free every sink inside its layer's span (freeing is part of a sink's
  /// cost). `t` may be null (untraced).
  std::vector<std::string> finish(const exp::RunOutput& out, exp::Method method,
                                  std::uint32_t nodes, Tracer* t) {
    const char* name = exp::method_name(method);
    const std::uint32_t pid = method == exp::Method::kBaseline ? 0 : 1;
    obs::ChromeTraceBuilder trace;
    obs::SpanDocBuilder span_doc;
    obs::ReportBuilder report;
    {
      Tracer::Scope s(t, "obs.chrome_trace");
      trace.set_process_name(pid, name);
      trace.add_execution(raw, pid);
    }
    {
      Tracer::Scope s(t, "obs.span_doc");
      span_doc.add_method(name, spans, nodes);
    }
    {
      Tracer::Scope s(t, "obs.chrome_trace");
      obs::add_critical_path_flows(trace, spans, span_doc.path(span_doc.method_count() - 1),
                                   pid);
    }
    obs::MethodReport mr;
    {
      Tracer::Scope s(t, "obs.analytics");
      mr.analytics = obs::analyze_execution(raw, nodes);
    }
    {
      Tracer::Scope s(t, "obs.report");
      mr.name = name;
      mr.timeline = &recorder;
      mr.makespan = out.makespan;
      mr.local_fraction = out.local_fraction;
      mr.spans = &spans;
      mr.node_count = nodes;
      report.add_method(std::move(mr));
    }
    {
      Tracer::Scope s(t, "obs.chrome_trace");
      obs::add_timeline_counters(trace, recorder, pid);
    }
    std::vector<std::string> docs(5);
    {
      Tracer::Scope s(t, "obs.metrics_json");
      docs[0] = obs::to_json(registry);
    }
    {
      Tracer::Scope s(t, "obs.chrome_trace");
      docs[1] = trace.json();
    }
    {
      Tracer::Scope s(t, "obs.report");
      docs[2] = report.html();
    }
    {
      Tracer::Scope s(t, "obs.span_doc");
      docs[3] = span_doc.spans_json();
      docs[4] = span_doc.critical_path_json();
    }
    if (t != nullptr && t->counting()) {
      static const char* const kSizes[] = {"obs.metrics_json_kb", "obs.chrome_trace_kb",
                                           "obs.report_kb", "obs.span_doc_kb"};
      for (std::size_t i = 0; i < 4; ++i)
        t->add(kSizes[i], static_cast<double>(docs[i].size()) / 1024.0);
      t->add("obs.span_doc_kb", static_cast<double>(docs[4].size()) / 1024.0);
    }
    {
      Tracer::Scope s(t, "obs.chrome_trace");
      trace = obs::ChromeTraceBuilder();
    }
    {
      Tracer::Scope s(t, "obs.span_doc");
      span_doc = obs::SpanDocBuilder();
    }
    {
      Tracer::Scope s(t, "obs.report");
      report = obs::ReportBuilder();
      recorder = obs::TimelineRecorder();
    }
    {
      Tracer::Scope s(t, "obs.spans_append");
      spans = obs::SpanLog();
    }
    {
      Tracer::Scope s(t, "obs.collect");
      registry = obs::MetricsRegistry();
      raw = runtime::ExecutionResult();
    }
    return docs;
  }
};

class SingleData final : public Workload {
 public:
  /// `sinks` arms every opass_cli sink; only the baseline method uses it.
  SingleData(std::uint64_t seed, std::uint32_t nodes, std::uint32_t tasks, exp::Method method,
             bool sinks)
      : seed_(seed), nodes_(nodes), tasks_(tasks), method_(method), sinks_(sinks) {}

  void run() override {
    exp::ExperimentConfig cfg;
    cfg.nodes = nodes_;
    cfg.seed = seed_;
    if (!sinks_) {
      out_ = exp::run_single_data(cfg, tasks_, method_);
      return;
    }
    Sinks sinks;
    cfg.metrics = &sinks.registry;
    cfg.raw = &sinks.raw;
    cfg.timeline = &sinks.recorder;
    cfg.spans = &sinks.spans;
    out_ = exp::run_single_data(cfg, tasks_, method_);
    artifacts_ = sinks.finish(out_, method_, nodes_, nullptr);
  }

  // exp::plan_single_data + simulate_planned + run_method's sink tail.
  void run_staged(Tracer& t) override {
    Rng placement_rng = stream(seed_, 1);
    Rng assign_rng = stream(seed_, 2);
    Rng exec_rng = stream(seed_, 3);
    std::optional<Sinks> sinks;
    if (sinks_) sinks.emplace();

    Tracer::Scope layout = t.span("workload.layout");
    std::unique_ptr<exp::PlannedScenario> sc(
        new exp::PlannedScenario{make_namenode(nodes_), {}, {}, {}, true});
    auto policy = dfs::make_placement(dfs::PlacementKind::kRandom);
    sc->tasks = workload::make_single_data_workload(sc->nn, tasks_, *policy, placement_rng);
    sc->placement = core::one_process_per_node(sc->nn, nodes_);
    layout.end();

    Tracer::Scope plan = t.span("opass.plan");
    if (method_ == exp::Method::kBaseline) {
      sc->assignment =
          runtime::rank_interval_assignment(static_cast<std::uint32_t>(sc->tasks.size()),
                                            static_cast<std::uint32_t>(sc->placement.size()));
    } else {
      core::PlanOptions options;
      options.planner = core::PlannerKind::kSingleData;
      auto result = core::plan({&sc->nn, &sc->tasks, &sc->placement, &assign_rng}, options);
      count_plan(t, result, sc->tasks.size());
      sc->assignment = std::move(result.assignment);
    }
    plan.end();

    Tracer::Scope reduce_span;
    {
      Tracer::Scope execute = t.span("runtime.execute");
      sim::Cluster cluster(nodes_, sim::ClusterParams{});
      runtime::StaticAssignmentSource source(sc->assignment);
      runtime::ExecutorConfig ec;
      ec.replica_choice = dfs::ReplicaChoice::kRandom;
      ec.process_count = static_cast<std::uint32_t>(sc->placement.size());
      ec.record_read_breakdown = sinks.has_value();
      obs::RunTimeline timeline(sinks ? &sinks->recorder : nullptr, cluster, ec.process_count);
      ec.probe = timeline.executor_probe();
      timeline.add_expected_bytes(runtime::total_task_bytes(sc->nn, sc->tasks));
      const auto exec = runtime::execute(cluster, sc->nn, sc->tasks, source, exec_rng, ec);
      timeline.finish();
      execute.end();
      const std::string prefix = exp::method_name(method_);
      if (sinks) {
        Tracer::Scope collect = t.span("obs.collect");
        obs::collect_execution(sinks->registry, exec, nodes_, prefix + ".executor");
        obs::collect_cluster(sinks->registry, cluster, prefix + ".cluster");
        sinks->raw = exec;
        collect.end();
        Tracer::Scope append = t.span("obs.spans_append");
        obs::append_execution_spans(sinks->spans, exec, sc->tasks, cluster);
      }
      reduce_span = t.span("exp.reduce");
      out_ = reduce(sc->nn, sc->tasks, exec, sc->placement, sc->assignment);
      if (t.counting()) {
        if (sinks) {
          Tracer::Scope s = t.span("bench.counts");
          count_sim(t, sinks->registry, prefix, nodes_);
        } else {
          count_sim(t, exec, cluster, prefix, nodes_);
        }
      }
    }
    sc.reset();
    reduce_span.end();
    if (sinks) artifacts_ = sinks->finish(out_, method_, nodes_, &t);
  }

  Check verify() override {
    Check c;
    Digest d;
    digest_run(d, out_);
    for (const std::string& doc : artifacts_) d.str(doc);
    c.digest = d.value();
    c.error = check_run(out_, tasks_);
    out_ = {};
    artifacts_.clear();
    return c;
  }

 private:
  std::uint64_t seed_;
  std::uint32_t nodes_;
  std::uint32_t tasks_;
  exp::Method method_;
  bool sinks_;
  exp::RunOutput out_;
  std::vector<std::string> artifacts_;
};

// --- dynamic-crash -----------------------------------------------------------

/// Forwards every pull to the wrapped source and times it. Reports itself
/// unsafe for concurrent pulls: its counters are shared by all processes.
class TimedSource final : public runtime::TaskSource {
 public:
  explicit TimedSource(runtime::TaskSource& inner) : inner_(inner) {}

  std::optional<runtime::TaskId> next_task(runtime::ProcessId process, Seconds now) override {
    return inner_.next_task(process, now);
  }
  runtime::Pull pull(runtime::ProcessId process, Seconds now) override {
    const std::int64_t start = Tracer::now_ns();
    const runtime::Pull pulled = inner_.pull(process, now);
    ns_ += Tracer::now_ns() - start;
    ++pulls_;
    return pulled;
  }

  std::int64_t ns() const { return ns_; }
  std::uint64_t pulls() const { return pulls_; }

 private:
  runtime::TaskSource& inner_;
  std::int64_t ns_ = 0;
  std::uint64_t pulls_ = 0;
};

class DynamicCrash final : public Workload {
 public:
  DynamicCrash(std::uint64_t seed, std::uint32_t nodes, std::uint32_t tasks)
      : seed_(seed), nodes_(nodes), tasks_(tasks) {
    // bench/faults/crash.json, built in code.
    plan_.horizon = 120.0;
    plan_.max_concurrent_copies = 4;
    sim::FaultEvent crash;
    crash.at = 3.0;
    crash.kind = sim::FaultKind::kCrash;
    crash.node = 17;
    plan_.events.push_back(crash);
    // Long enough that recovery completes while tasks are still pending, so
    // the membership callback re-plans the remainder (at the 0.4 s default
    // every task is dispatched before recovery ends).
    spec_.mean_compute_time = 2.4;
  }

  void run() override {
    exp::ExperimentConfig cfg;
    cfg.nodes = nodes_;
    cfg.seed = seed_;
    cfg.faults = &plan_;
    cfg.fault_stats = &faults_;
    out_ = exp::run_dynamic(cfg, tasks_, exp::Method::kOpass, spec_);
  }

  // exp::run_dynamic's Opass branch with its FaultHarness.
  void run_staged(Tracer& t) override {
    Rng placement_rng = stream(seed_, 1);
    Rng assign_rng = stream(seed_, 2);
    Rng exec_rng = stream(seed_, 3);
    Rng fault_rng = stream(seed_, 4);

    Tracer::Scope layout = t.span("workload.layout");
    auto nn = std::make_unique<dfs::NameNode>(make_namenode(nodes_));
    auto policy = dfs::make_placement(dfs::PlacementKind::kRandom);
    workload::GenomicsSpec spec = spec_;
    spec.partition_count = tasks_;
    auto tasks = std::make_unique<std::vector<runtime::Task>>(
        workload::make_genomics_workload(*nn, *policy, placement_rng, spec));
    const auto placement = core::one_process_per_node(*nn, nodes_);
    layout.end();

    Tracer::Scope reduce_span;
    {
      Tracer::Scope execute = t.span("runtime.execute");
      sim::Cluster cluster(nodes_, sim::ClusterParams{});
      runtime::ExecutorConfig ec;
      ec.replica_choice = dfs::ReplicaChoice::kRandom;
      ec.process_count = static_cast<std::uint32_t>(placement.size());
      obs::RunTimeline timeline(nullptr, cluster, ec.process_count);
      ec.probe = timeline.executor_probe();
      timeline.add_expected_bytes(runtime::total_task_bytes(*nn, *tasks));
      execute.end();

      Tracer::Scope plan = t.span("opass.plan");
      core::PlanOptions options;
      options.planner = core::PlannerKind::kSingleData;
      runtime::Assignment guideline;
      {
        auto result = core::plan({nn.get(), tasks.get(), &placement, &assign_rng}, options);
        count_plan(t, result, tasks->size());
        guideline = std::move(result.assignment);
      }
      core::OpassDynamicSource source(guideline, *nn, *tasks, placement);
      plan.end();

      execute = t.span("runtime.execute");
      sim::HeartbeatMonitor monitor(cluster, *nn, /*namenode_host=*/0, fault_rng,
                                    sim::HeartbeatParams{});
      sim::FaultInjector injector(cluster, *nn, monitor, plan_);
      injector.set_probe(nullptr);
      injector.arm();
      monitor.start(plan_.horizon);
      injector.set_membership_callback(
          [&](Seconds /*now*/, sim::MembershipEvent ev, dfs::NodeId node) {
            if (ev == sim::MembershipEvent::kNodeDead) {
              source.on_node_dead(node);
              return;
            }
            if (ev != sim::MembershipEvent::kNodeJoined &&
                ev != sim::MembershipEvent::kRecoveryComplete)
              return;
            const auto remaining = source.remaining_task_ids();
            if (remaining.empty()) return;
            Tracer::Scope replan = t.span("opass.replan");
            t.add("opass.replans", 1);
            std::vector<runtime::Task> sub;
            sub.reserve(remaining.size());
            for (runtime::TaskId id : remaining) {
              runtime::Task copy = (*tasks)[id];
              copy.id = static_cast<runtime::TaskId>(sub.size());
              sub.push_back(std::move(copy));
            }
            auto sub_assignment =
                core::plan({nn.get(), &sub, &placement, &assign_rng}, options).assignment;
            runtime::Assignment mapped(sub_assignment.size());
            for (std::size_t p = 0; p < sub_assignment.size(); ++p)
              for (runtime::TaskId id : sub_assignment[p]) mapped[p].push_back(remaining[id]);
            source.adopt_guideline(mapped);
          });
      TimedSource timed(source);
      const auto exec = runtime::execute(cluster, *nn, *tasks, timed, exec_rng, ec);
      timeline.finish();
      t.charge("runtime.pull", timed.ns());
      t.add("runtime.pulls", static_cast<double>(timed.pulls()));
      faults_ = injector.stats();
      execute.end();

      reduce_span = t.span("exp.reduce");
      out_ = reduce(*nn, *tasks, exec, placement, guideline);
      if (t.counting()) {
        count_sim(t, exec, cluster, "opass", nodes_);
        Tracer::Scope s = t.span("bench.counts");
        obs::MetricsRegistry reg;
        obs::collect_dynamic(reg, source, "opass.dynamic");
        t.add("opass.steals", static_cast<double>(reg.at("opass.dynamic.steals").counter));
        t.add("opass.guideline_hits",
              static_cast<double>(reg.at("opass.dynamic.guideline_hits").counter));
        t.add("sim.replicas_copied", faults_.replicas_copied);
        t.add("sim.rereplicated_mib", to_mib(faults_.rereplicated_bytes));
        t.add("sim.recoveries", faults_.recoveries);
      }
    }
    tasks.reset();
    nn.reset();
    reduce_span.end();
  }

  Check verify() override {
    Check c;
    Digest d;
    digest_run(d, out_);
    d.u64(faults_.crashes);
    d.u64(faults_.recoveries);
    d.u64(faults_.replicas_copied);
    d.u64(faults_.rereplicated_bytes);
    d.u64(faults_.lost_chunks);
    d.u64(faults_.aborted_copies);
    c.digest = d.value();
    c.error = check_run(out_, tasks_);
    if (c.error.empty() && faults_.crashes != 1) c.error = "the scripted crash did not fire";
    out_ = {};
    faults_ = {};
    return c;
  }

 private:
  std::uint64_t seed_;
  std::uint32_t nodes_;
  std::uint32_t tasks_;
  sim::FaultPlan plan_;
  workload::GenomicsSpec spec_;
  exp::RunOutput out_;
  sim::FaultStats faults_;
};

// --- service-stream ----------------------------------------------------------

class ServiceStream final : public Workload {
 public:
  static constexpr std::uint32_t kNodes = 1024;
  static constexpr std::uint32_t kJobs = 64;
  static constexpr std::uint32_t kTasksPerJob = 128;
  static constexpr std::uint32_t kTenants = 4;
  static constexpr double kArrivalGap = 0.05;

  /// The layout is built once per process, as exp::replay_service_trace
  /// builds it: one shared dataset, one chunk per task.
  explicit ServiceStream(std::uint64_t seed) : seed_(seed), nn_(make_namenode(kNodes)) {
    Rng rng = stream(seed, 1);
    auto policy = dfs::make_placement(dfs::PlacementKind::kRandom);
    const dfs::FileId fid =
        workload::store_chunked_dataset(nn_, "service-dataset", kJobs * kTasksPerJob, *policy, rng);
    tasks_ = runtime::single_input_tasks(nn_, {fid});
    placement_ = core::one_process_per_node(nn_, kNodes);
  }

  void run() override { replay(nullptr); }
  void run_staged(Tracer& t) override { replay(&t); }

  Check verify() override {
    Check c;
    Digest d;
    std::vector<std::uint32_t> seen(tasks_.size(), 0);
    for (core::JobId id = 1; id <= service_->job_count(); ++id) {
      const core::JobStatus& job = service_->status(id);
      d.u64(job.id);
      d.u64(job.batch);
      d.f64(job.planned_at);
      for (std::size_t p = 0; p < job.assignment.size(); ++p) {
        if (job.assignment[p].empty()) continue;
        d.u64(p);
        for (runtime::TaskId task : job.assignment[p]) {
          d.u64(task);
          if (task < seen.size()) ++seen[task];
        }
      }
      if (c.error.empty() && (job.state != core::JobState::kPlanned || job.batch == 0))
        c.error = "job " + std::to_string(id) + " was not planned";
    }
    c.digest = d.value();
    if (c.error.empty() && service_->job_count() != kJobs) c.error = "jobs went missing";
    if (c.error.empty() &&
        std::any_of(seen.begin(), seen.end(), [](std::uint32_t n) { return n != 1; }))
      c.error = "a task is not in exactly one process list";
    return c;
  }

 private:
  // A closed loop with one caller: advance_to() at every arrival, then drain().
  void replay(Tracer* t) {
    Tracer::Scope submit(t, "svc.submit");
    core::ServiceOptions options;
    options.seed = seed_;
    options.batch_window = 0.2;
    options.fair_share = true;
    service_.reset();
    service_ = std::make_unique<core::PlannerService>(nn_, placement_, options);
    for (std::uint32_t j = 0; j < kJobs; ++j) {
      core::JobRequest request;
      request.tenant = j % kTenants;
      request.weight = 1.0 + static_cast<double>(request.tenant % 2);
      request.arrival = static_cast<double>(j) * kArrivalGap;
      const auto begin = tasks_.begin() + static_cast<std::ptrdiff_t>(j * kTasksPerJob);
      request.tasks.assign(begin, begin + kTasksPerJob);
      (void)service_->submit(std::move(request));
    }
    submit.end();

    core::PlannerService& service = *service_;
    const auto step = [&](auto&& call) {
      if (t == nullptr) {
        call();
        return;
      }
      const std::uint64_t jobs_before = service.counters().jobs_planned;
      const std::uint32_t batches_before = service.counters().batches;
      Tracer::Scope span(t, "svc.plan");
      const std::int64_t start = Tracer::now_ns();
      call();
      const double ms = static_cast<double>(Tracer::now_ns() - start) / 1e6;
      span.end();
      const std::uint64_t jobs = service.counters().jobs_planned - jobs_before;
      const std::uint32_t batches = service.counters().batches - batches_before;
      for (std::uint64_t i = 0; i < jobs; ++i) t->sample("svc.job_ms", ms);
      if (batches > 0) t->sample("svc.batch_ms", ms / batches);
    };
    for (std::uint32_t j = 0; j < kJobs; ++j)
      step([&] { service.advance_to(static_cast<double>(j) * kArrivalGap); });
    step([&] { service.drain(); });

    if (t != nullptr && t->counting()) {
      Tracer::Scope s(t, "bench.counts");
      obs::MetricsRegistry reg;
      obs::collect_service(reg, service);
      const auto counter = [&](const char* name) {
        return static_cast<double>(reg.at(name).counter);
      };
      const double batches = counter("service.batches");
      const double planned = counter("service.tasks_planned");
      t->add("svc.batches", batches);
      t->add("svc.tasks_per_batch", batches > 0 ? planned / batches : 0.0);
      t->add("svc.local_match_frac", counter("service.locally_matched") / planned);
      t->add("svc.max_queue_depth", reg.at("service.max_queue_depth").gauge);
    }
  }

  std::uint64_t seed_;
  dfs::NameNode nn_;
  std::vector<runtime::Task> tasks_;
  core::ProcessPlacement placement_;
  std::unique_ptr<core::PlannerService> service_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "single-contended", "single-opass", "sinks-on", "dynamic-crash", "service-stream"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "single-contended")
    return std::make_unique<SingleData>(seed, 1024, 40960, exp::Method::kBaseline, false);
  if (name == "single-opass")
    return std::make_unique<SingleData>(seed, 1024, 40960, exp::Method::kOpass, false);
  if (name == "sinks-on")
    return std::make_unique<SingleData>(seed, 512, 4096, exp::Method::kBaseline, true);
  if (name == "dynamic-crash") return std::make_unique<DynamicCrash>(seed, 1024, 20480);
  if (name == "service-stream") return std::make_unique<ServiceStream>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace opass::bench
