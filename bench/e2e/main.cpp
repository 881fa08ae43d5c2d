// opass_bench — the repository benchmark (see README.md and BENCHMARK.json).
//
//   opass_bench [--workloads=a,b] [--seconds=15] [--seed=9] [--probes=15]
//               [--traced] [--out=path.json] [--spans-out=path.json]
//
// One process drives the load from its main thread, with the library's
// default worker-pool lane count. One untimed warm-up round comes first, then
// timed rounds for --seconds (at least one round); a round runs every
// selected workload once, in a fixed order, so slow host phases hit all
// workloads alike. Spread evenly over the timed phase, --probes fresh child
// processes per workload (re-executing this binary) each time one cold run
// (setup_s, peak_rss_mb). With --traced every round also runs each
// workload's staged replica, whose spans give the per-layer metrics. Every
// run's outputs are digested and checked against the warm-up run,
// golden.json (default seed only) and the workload's invariants.
//
// Prints one "workload metric value unit" line per metric, then the whole
// result as one JSON line (also written to --out). Exits 1 when a run failed.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

extern char** environ;

namespace {

using namespace opass::bench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Run time is reported at its 5th percentile: every run repeats identical,
// deterministic work, so the spread of a run's samples is host interference,
// which only ever adds time (README.md, "Host notes").
constexpr MetricDef kEndToEnd[] = {{"run_ms_p5", "ms"}, {"peak_rss_mb", "MiB"}, {"setup_s", "s"}};

constexpr MetricDef kPerLayer[] = {
    {"workload.layout_ms", "ms"},
    {"opass.plan_ms", "ms"},
    {"opass.match_ms", "ms"},
    {"opass.stats_ms", "ms"},
    {"opass.locally_matched", "count"},
    {"opass.randomly_filled", "count"},
    {"opass.local_match_frac", "ratio"},
    {"opass.replan_ms", "ms"},
    {"opass.replans", "count"},
    {"opass.steals", "count"},
    {"opass.guideline_hits", "count"},
    {"runtime.execute_ms", "ms"},
    {"runtime.execute_us_per_read", "us"},
    {"runtime.pull_ms", "ms"},
    {"runtime.pulls", "count"},
    {"runtime.reads_total", "count"},
    {"runtime.reads_local", "count"},
    {"runtime.read_failures", "count"},
    {"sim.rate_recomputes", "count"},
    {"sim.relevel_touched_flows", "count"},
    {"sim.touched_per_recompute", "ratio"},
    {"sim.max_relevel_component", "count"},
    {"sim.eta_stale_pops", "count"},
    {"sim.peak_active_flows", "count"},
    {"sim.disk_peak_load_max", "count"},
    {"sim.replicas_copied", "count"},
    {"sim.rereplicated_mib", "MiB"},
    {"sim.recoveries", "count"},
    {"exp.reduce_ms", "ms"},
    {"obs.collect_ms", "ms"},
    {"obs.spans_append_ms", "ms"},
    {"obs.analytics_ms", "ms"},
    {"obs.metrics_json_ms", "ms"},
    {"obs.chrome_trace_ms", "ms"},
    {"obs.span_doc_ms", "ms"},
    {"obs.report_ms", "ms"},
    {"obs.metrics_json_kb", "KiB"},
    {"obs.chrome_trace_kb", "KiB"},
    {"obs.span_doc_kb", "KiB"},
    {"obs.report_kb", "KiB"},
    {"svc.submit_ms", "ms"},
    {"svc.plan_ms", "ms"},
    {"svc.job_ms_p50", "ms"},
    {"svc.job_ms_p99", "ms"},
    {"svc.jobs_per_s", "1/s"},
    {"svc.batch_ms_p50", "ms"},
    {"svc.batch_ms_max", "ms"},
    {"svc.batches", "count"},
    {"svc.tasks_per_batch", "count"},
    {"svc.local_match_frac", "ratio"},
    {"svc.max_queue_depth", "count"},
    {"bench.staged_ms_p50", "ms"},
    {"bench.trace_coverage", "ratio"},
    {"bench.trace_overhead_pct", "%"},
};

/// The span layers that tile a staged run: their self times sum to the run
/// up to the benchmark's own glue between calls.
constexpr const char* kTilingLayers[] = {
    "workload.layout_ms", "opass.plan_ms",       "opass.replan_ms",     "runtime.execute_ms",
    "runtime.pull_ms",    "exp.reduce_ms",       "obs.collect_ms",      "obs.spans_append_ms",
    "obs.analytics_ms",   "obs.metrics_json_ms", "obs.chrome_trace_ms", "obs.span_doc_ms",
    "obs.report_ms",      "svc.submit_ms",       "svc.plan_ms"};

/// Percentile with linear interpolation between closest ranks; 0 when empty.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(Tracer::now_ns() - start_ns) / 1e6;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

struct Args {
  std::vector<std::string> workloads = workload_names();
  std::uint64_t seed = 9;
  double seconds = 15;
  std::uint32_t probes = 15;
  bool traced = false;
  std::string out;
  std::string spans_out;
  std::string probe;  ///< child mode: one cold run of this workload
  std::int64_t probe_t0 = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workloads") {
        a.workloads.clear();
        std::istringstream list(value);
        for (std::string name; std::getline(list, name, ',');) {
          const auto& known = workload_names();
          if (std::find(known.begin(), known.end(), name) == known.end()) {
            std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
            return false;
          }
          a.workloads.push_back(name);
        }
        if (a.workloads.empty()) return false;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
        if (!(a.seconds > 0)) return false;
      } else if (key == "--probes") {
        a.probes = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "--traced" && value.empty()) {
        a.traced = true;
      } else if (key == "--out") {
        a.out = value;
      } else if (key == "--spans-out") {
        a.spans_out = value;
      } else if (key == "--probe") {
        a.probe = value;
      } else if (key == "--probe-t0") {
        a.probe_t0 = std::stoll(value);
      } else {
        std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value in '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// This process's peak resident set in KiB (VmHWM), 0 when unreadable.
/// Unlike ru_maxrss it belongs to the address space exec made: ru_maxrss
/// also keeps the peak of the address space the child was spawned from,
/// which posix_spawn shares with the (large) parent until exec.
long long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  return 0;
}

/// Child mode: one cold run, timed from the parent's spawn timestamp.
int probe_main(const Args& a) {
  try {
    auto workload = make_workload(a.probe, a.seed);
    workload->run();
    const std::int64_t elapsed_ns = Tracer::now_ns() - a.probe_t0;
    const Check c = workload->verify();
    std::printf("%s %lld %lld %s\n", hex(c.digest).c_str(), static_cast<long long>(elapsed_ns),
                peak_rss_kb(), c.error.empty() ? "ok" : c.error.c_str());
    return c.error.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::printf("0 0 0 %s\n", e.what());
    return 1;
  }
}

struct ProbeResult {
  bool ok = false;
  std::uint64_t digest = 0;
  double setup_s = 0;
  double rss_mb = 0;
  std::string error;
};

/// Start a fresh copy of this binary for one cold run of `workload` and
/// wait for it. posix_spawn starts the child without copying this
/// process's pages.
ProbeResult run_probe(const std::string& exe, const std::string& workload, std::uint64_t seed) {
  ProbeResult r;
  int fds[2];
  if (pipe(fds) != 0) {
    r.error = std::string("pipe: ") + std::strerror(errno);
    return r;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::int64_t t0 = Tracer::now_ns();
  std::vector<std::string> args = {exe, "--probe=" + workload, "--seed=" + std::to_string(seed),
                                   "--probe-t0=" + std::to_string(t0)};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    r.error = std::string("posix_spawn: ") + std::strerror(rc);
    return r;
  }
  std::string out;
  char buf[512];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::istringstream line(out);
  std::string digest_hex, verdict;
  long long elapsed_ns = 0, rss_kb = 0;
  line >> digest_hex >> elapsed_ns >> rss_kb;
  std::getline(line >> std::ws, verdict);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || verdict != "ok" || rss_kb <= 0) {
    r.error = "child failed: " + (verdict.empty() ? std::string("no output") : verdict);
    return r;
  }
  r.ok = true;
  r.digest = std::stoull(digest_hex, nullptr, 16);
  r.setup_s = static_cast<double>(elapsed_ns) / 1e9;
  r.rss_mb = static_cast<double>(rss_kb) / 1024.0;
  return r;
}

/// golden.json: {"seed": N, "digests": {"<workload>": "<hex>", ...}}.
struct Golden {
  bool loaded = false;
  std::uint64_t seed = 0;
  std::map<std::string, std::uint64_t> digests;
};

Golden load_golden(const std::string& path) {
  Golden g;
  std::ifstream in(path);
  if (!in) return g;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::size_t seed_at = text.find("\"seed\"");
  if (seed_at == std::string::npos) return g;
  g.seed = std::stoull(text.substr(text.find(':', seed_at) + 1));
  for (const std::string& name : workload_names()) {
    const std::size_t at = text.find("\"" + name + "\"");
    if (at == std::string::npos) continue;
    const std::size_t open = text.find('"', text.find(':', at));
    const std::size_t close = text.find('"', open + 1);
    g.digests[name] = std::stoull(text.substr(open + 1, close - open - 1), nullptr, 16);
  }
  g.loaded = true;
  return g;
}

/// Everything one workload measured in this process.
struct Result {
  std::string name;
  std::unique_ptr<Workload> workload;
  std::vector<double> run_ms;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  std::vector<Tracer::Run> staged;
  std::uint64_t reference = 0;
  bool have_reference = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const char* golden = "skipped";
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }

  /// Count one run of `body`, verify its outputs against the reference
  /// digest (the first verified run sets it) and return its wall time in
  /// ms, or a negative value when it failed.
  template <class Body>
  double attempt(const char* what, Body&& body) {
    ++attempted;
    try {
      const std::int64_t start = Tracer::now_ns();
      body();
      const double ms = ms_since(start);
      const Check c = workload->verify();
      if (!c.error.empty()) {
        fail(std::string(what) + ": " + c.error);
        return -1;
      }
      if (!have_reference) {
        reference = c.digest;
        have_reference = true;
      } else if (c.digest != reference) {
        fail(std::string(what) + ": digest " + hex(c.digest) + " differs from " + hex(reference));
        return -1;
      }
      return ms;
    } catch (const std::exception& e) {
      fail(std::string(what) + " threw: " + e.what());
      return -1;
    }
  }
};

void reduce_metrics(Result& r, bool traced) {
  if (!r.run_ms.empty()) r.metrics["run_ms_p5"] = percentile(r.run_ms, 5);
  if (!r.setup_s.empty()) {
    r.metrics["setup_s"] = median(r.setup_s);
    r.metrics["peak_rss_mb"] = median(r.rss_mb);
  }
  if (!traced || r.staged.empty()) return;

  // Per-run values: medians over the runs that recorded them (counts are
  // recorded on the first staged run only).
  std::map<std::string, std::vector<double>> by_key;
  std::vector<double> totals, jobs, batches, batch_max;
  double plan_ms = 0;
  for (const Tracer::Run& run : r.staged) {
    totals.push_back(run.total_ms);
    for (const auto& [key, value] : run.values) by_key[key].push_back(value);
    const auto find = [&](const char* key) {
      const auto it = run.samples.find(key);
      return it == run.samples.end() ? std::vector<double>{} : it->second;
    };
    const std::vector<double> job = find("svc.job_ms"), batch = find("svc.batch_ms");
    jobs.insert(jobs.end(), job.begin(), job.end());
    batches.insert(batches.end(), batch.begin(), batch.end());
    if (!batch.empty()) batch_max.push_back(*std::max_element(batch.begin(), batch.end()));
    const auto it = run.values.find("svc.plan_ms");
    if (it != run.values.end()) plan_ms += it->second;
  }
  std::map<std::string, double> layer;
  for (auto& [key, values] : by_key) layer[key] = median(values);
  if (!jobs.empty()) {
    layer["svc.job_ms_p50"] = percentile(jobs, 50);
    layer["svc.job_ms_p99"] = percentile(jobs, 99);
    layer["svc.jobs_per_s"] = static_cast<double>(jobs.size()) / (plan_ms / 1e3);
  }
  if (!batches.empty()) {
    layer["svc.batch_ms_p50"] = percentile(batches, 50);
    layer["svc.batch_ms_max"] = median(batch_max);
  }
  if (layer["runtime.reads_total"] > 0)
    layer["runtime.execute_us_per_read"] =
        layer["runtime.execute_ms"] * 1e3 / layer["runtime.reads_total"];
  const double staged = median(totals);
  double covered = 0;
  for (const char* key : kTilingLayers) covered += layer[key];
  layer["bench.staged_ms_p50"] = staged;
  layer["bench.trace_coverage"] = covered / staged;
  // Twin runs alternate within each round, so their medians see the same
  // host phases.
  if (!r.run_ms.empty())
    layer["bench.trace_overhead_pct"] = 100.0 * (staged / median(r.run_ms) - 1.0);
  for (const MetricDef& m : kPerLayer) r.metrics[m.name] = layer[m.name];
}

std::string result_json(const Args& a, const std::vector<Result>& results) {
  std::uint64_t attempted = 0, failed = 0;
  for (const Result& r : results) {
    attempted += r.attempted;
    failed += r.failed;
  }
  std::ostringstream os;
  char num[64];
  os << "{\"schema\": 1, \"seed\": " << a.seed << ", \"traced\": " << (a.traced ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    os << (i ? ", " : "") << "\"" << r.name << "\": {\"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"golden\": \"" << r.golden << "\", \"digest\": \""
       << hex(r.reference) << "\", \"errors\": [";
    for (std::size_t e = 0; e < r.errors.size(); ++e)
      os << (e ? ", " : "") << "\"" << json_escape(r.errors[e]) << "\"";
    os << "], \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricDef& m) {
      const auto it = r.metrics.find(m.name);
      if (it == r.metrics.end()) return;
      std::snprintf(num, sizeof num, "%.17g", it->second);
      os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << num
         << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    };
    for (const MetricDef& m : kEndToEnd) emit(m);
    for (const MetricDef& m : kPerLayer) emit(m);
    os << "}}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: opass_bench [--workloads=a,b] [--seconds=S] [--seed=N] [--probes=N]\n"
                 "                   [--traced] [--out=path.json] [--spans-out=path.json]\n"
                 "workloads:");
    for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (!a.probe.empty()) return probe_main(a);

  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (exe_len <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return 2;
  }
  exe[exe_len] = '\0';
  const Golden golden = load_golden(OPASS_BENCH_GOLDEN);

  std::vector<Result> results(a.workloads.size());
  for (std::size_t i = 0; i < results.size(); ++i) results[i].name = a.workloads[i];

  // Untimed warm-up round: sets each workload's reference digest.
  for (Result& r : results) {
    try {
      r.workload = make_workload(r.name, a.seed);
    } catch (const std::exception& e) {
      r.fail(std::string("setup threw: ") + e.what());
      continue;
    }
    if (r.attempt("warm-up", [&] { r.workload->run(); }) < 0) continue;
    const auto g = golden.digests.find(r.name);
    if (golden.loaded && golden.seed == a.seed && g != golden.digests.end()) {
      r.golden = g->second == r.reference ? "match" : "mismatch";
      if (g->second != r.reference)
        r.fail("digest " + hex(r.reference) + " differs from golden " + hex(g->second));
    }
  }

  Tracer tracer;
  const auto timed_run = [](Result& r) {
    const double ms = r.attempt("run", [&] { r.workload->run(); });
    if (ms >= 0) r.run_ms.push_back(ms);
  };
  const auto staged_run = [&tracer](Result& r) {
    tracer.set_counting(r.staged.empty());
    Tracer::Run run;
    const double ms = r.attempt("staged run", [&] {
      tracer.begin_run(r.name);
      try {
        r.workload->run_staged(tracer);
      } catch (...) {
        (void)tracer.end_run();
        throw;
      }
      run = tracer.end_run();
    });
    if (ms >= 0) r.staged.push_back(std::move(run));
  };
  const auto probe_all = [&] {
    for (Result& r : results) {
      if (!r.workload) continue;
      ++r.attempted;
      const ProbeResult p = run_probe(exe, r.name, a.seed);
      if (!p.ok) {
        r.fail("probe: " + p.error);
      } else if (r.have_reference && p.digest != r.reference) {
        r.fail("probe digest " + hex(p.digest) + " differs from " + hex(r.reference));
      } else {
        r.setup_s.push_back(p.setup_s);
        r.rss_mb.push_back(p.rss_mb);
      }
    }
  };
  // Probe k runs before the first round that starts at or after k/probes of
  // the timed phase, so the probes sample its slow and fast host phases alike.
  const double phase_ms = a.seconds * 1e3;
  std::uint32_t probes_done = 0;
  const std::int64_t start = Tracer::now_ns();
  for (std::uint32_t round = 0;; ++round) {
    const double elapsed = ms_since(start);
    if (round > 0 && elapsed >= phase_ms) break;
    if (probes_done < a.probes && elapsed >= probes_done * phase_ms / a.probes) {
      probe_all();
      ++probes_done;
    }
    for (Result& r : results) {
      if (!r.workload) continue;
      // Traced rounds alternate which of the twin runs goes first.
      if (a.traced && round % 2 == 1) staged_run(r);
      timed_run(r);
      if (a.traced && round % 2 == 0) staged_run(r);
    }
  }
  // Probes the timed phase left no round for (a phase shorter than a round).
  for (; probes_done < a.probes; ++probes_done) probe_all();

  int rc = 0;
  for (Result& r : results) {
    reduce_metrics(r, a.traced);
    const auto print = [&](const MetricDef& m) {
      const auto it = r.metrics.find(m.name);
      if (it != r.metrics.end())
        std::printf("%s %s %.6g %s\n", r.name.c_str(), m.name, it->second, m.unit);
    };
    for (const MetricDef& m : kEndToEnd) print(m);
    for (const MetricDef& m : kPerLayer) print(m);
    std::printf("%s failed_frac %.6g ratio\n", r.name.c_str(),
                r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                            : 0.0);
    for (const std::string& e : r.errors) std::fprintf(stderr, "%s: %s\n", r.name.c_str(), e.c_str());
    if (r.failed > 0) rc = 1;
  }
  if (a.traced && !a.spans_out.empty()) {
    const std::string doc = tracer.chrome_json();
    std::ofstream(a.spans_out, std::ios::binary) << doc;
    std::fprintf(stderr, "host spans: %s (%.1f KiB)\n", a.spans_out.c_str(),
                 static_cast<double>(doc.size()) / 1024.0);
  }
  const std::string json = result_json(a, results);
  if (!a.out.empty()) std::ofstream(a.out, std::ios::binary) << json << '\n';
  std::printf("%s\n", json.c_str());
  return rc;
}
