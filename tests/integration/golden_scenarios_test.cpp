// Cross-commit golden pin for the five exp scenarios, their observability
// sinks, the service replay, the batch planner and all four core::plan()
// planners. The other determinism suites compare a run with a second run of
// the same build; this one compares against constants recorded from an earlier commit, so a change
// that shifts any scenario's bytes (a different plan, a reordered read, a
// re-leveled rate, a reordered metric registration) fails here even when it
// is self-consistent. Each digest is FNV-1a over the exact bits of a run's
// reduced output or of a rendered sink document. When a change alters the
// model on purpose, re-record the constants and say why in the change log.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/service_trace.hpp"
#include "obs/analytics.hpp"
#include "obs/attribution.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics_io.hpp"
#include "obs/report.hpp"
#include "opass/incremental.hpp"
#include "opass/plan_audit.hpp"
#include "opass/planner.hpp"
#include "opass/service.hpp"
#include "workload/dataset.hpp"
#include "workload/multi_input.hpp"

namespace opass::exp {
namespace {

/// FNV-1a (64-bit) over raw bytes.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void f64s(const std::vector<double>& vs) {
    u64(vs.size());
    for (double v : vs) f64(v);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  /// Every process's task list, in order.
  void assignment(const runtime::Assignment& a) {
    u64(a.size());
    for (const auto& list : a) {
      u64(list.size());
      for (runtime::TaskId t : list) u64(t);
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

void digest_run(Digest& d, const RunOutput& out) {
  d.f64(out.makespan);
  d.u64(out.tasks_executed);
  d.f64(out.local_fraction);
  d.f64(out.planned_local_fraction);
  d.f64s(out.io_times);
  d.f64s(out.served_mb);
}

ExperimentConfig golden_cfg() {
  ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 42;
  return cfg;
}

std::string single_digest(Method m) {
  Digest d;
  digest_run(d, run_single_data(golden_cfg(), 160, m));
  return d.hex();
}

std::string multi_digest(Method m) {
  Digest d;
  digest_run(d, run_multi_data(golden_cfg(), 64, m));
  return d.hex();
}

/// `crash_at` > 0 crashes node 5 at that virtual time, so the Opass run
/// re-homes the dead node's list and re-plans the remaining tasks once
/// recovery completes.
std::string dynamic_digest(Method m, Seconds crash_at = 0) {
  auto cfg = golden_cfg();
  sim::FaultPlan plan;
  if (crash_at > 0) {
    sim::FaultEvent crash;
    crash.at = crash_at;
    crash.kind = sim::FaultKind::kCrash;
    crash.node = 5;
    plan.events.push_back(crash);
    cfg.faults = &plan;
  }
  Digest d;
  digest_run(d, run_dynamic(cfg, 96, m));
  return d.hex();
}

std::string paraview_digest(Method m) {
  const auto out = run_paraview(golden_cfg(), m);
  Digest d;
  digest_run(d, out.run);
  d.f64s(out.step_times);
  d.f64(out.total_time);
  return d.hex();
}

std::string iterative_digest(Method m) {
  const auto out = run_iterative(golden_cfg(), 64, 3, m);
  Digest d;
  digest_run(d, out.run);
  d.f64s(out.epoch_times);
  d.f64(out.total_time);
  return d.hex();
}

TEST(GoldenScenarios, SingleData) {
  EXPECT_EQ(single_digest(Method::kBaseline), "9d113670f5d4f61c");
  EXPECT_EQ(single_digest(Method::kOpass), "d3960afb1b54ad41");
}

TEST(GoldenScenarios, MultiData) {
  EXPECT_EQ(multi_digest(Method::kBaseline), "4c33361d40a834eb");
  EXPECT_EQ(multi_digest(Method::kOpass), "48db41f90f7260a9");
}

TEST(GoldenScenarios, Dynamic) {
  EXPECT_EQ(dynamic_digest(Method::kBaseline), "ec005162cbb37c78");
  EXPECT_EQ(dynamic_digest(Method::kOpass), "f6d0fd57f1100864");
  EXPECT_EQ(dynamic_digest(Method::kOpass, /*crash_at=*/2.0), "825c479ab7c74785");
}

/// r = 5 on 16 nodes: every replica list is longer than four, so the layout,
/// both single-data methods, the read policy and recovery all walk lists
/// that spill past any small inline capacity. The crash (node 5 dies at
/// t = 2 s) re-adds the dead node's replicas on survivors; the drain
/// (node 5 decommissioned at t = 2 s) holds r + 1 replicas of a chunk while
/// its copy lands.
std::string replication5_digest(Method m, const sim::FaultPlan* faults, bool dynamic) {
  auto cfg = golden_cfg();
  cfg.replication = 5;
  cfg.faults = faults;
  Digest d;
  digest_run(d, dynamic ? run_dynamic(cfg, 96, m) : run_single_data(cfg, 160, m));
  return d.hex();
}

sim::FaultPlan node5_plan(sim::FaultKind kind) {
  sim::FaultPlan plan;
  sim::FaultEvent event;
  event.at = 2.0;
  event.kind = kind;
  event.node = 5;
  plan.events.push_back(event);
  return plan;
}

TEST(GoldenScenarios, ReplicationFive) {
  EXPECT_EQ(replication5_digest(Method::kBaseline, nullptr, false), "c2cdccf48d4dcad6");
  EXPECT_EQ(replication5_digest(Method::kOpass, nullptr, false), "d3960afb1b54ad41");
  const sim::FaultPlan crash = node5_plan(sim::FaultKind::kCrash);
  EXPECT_EQ(replication5_digest(Method::kOpass, &crash, true), "da943b37df7b219f");
  const sim::FaultPlan drain = node5_plan(sim::FaultKind::kDecommission);
  EXPECT_EQ(replication5_digest(Method::kOpass, &drain, true), "07657fc49cdf1d88");
}

TEST(GoldenScenarios, ParaView) {
  EXPECT_EQ(paraview_digest(Method::kBaseline), "f6ee84fda7ef09bc");
  EXPECT_EQ(paraview_digest(Method::kOpass), "d363dc281e66d381");
}

TEST(GoldenScenarios, Iterative) {
  EXPECT_EQ(iterative_digest(Method::kBaseline), "8407e08aff13e489");
  EXPECT_EQ(iterative_digest(Method::kOpass), "9cda3d19122139b0");
}

/// Runs `run` with every exp sink armed (metrics, raw trace, timeline,
/// spans) and digests the four documents opass_cli renders from them for one
/// method: the deterministic metrics JSON, the Chrome trace of the raw
/// execution, the timeline JSON and the span JSON, space-separated.
template <typename RunFn>
std::string sink_digests(Method m, RunFn run, ExperimentConfig cfg = golden_cfg()) {
  obs::MetricsRegistry registry;
  runtime::ExecutionResult raw;
  obs::TimelineRecorder recorder;
  obs::SpanLog spans;
  cfg.metrics = &registry;
  cfg.raw = &raw;
  cfg.timeline = &recorder;
  cfg.spans = &spans;
  const RunOutput out = run(cfg);

  obs::ChromeTraceBuilder trace;
  trace.add_execution(raw, 0);
  obs::ReportBuilder report;
  obs::MethodReport mr;
  mr.name = method_name(m);
  mr.timeline = &recorder;
  mr.analytics = obs::analyze_execution(raw, cfg.nodes);
  mr.makespan = out.makespan;
  mr.local_fraction = out.local_fraction;
  mr.spans = &spans;
  mr.node_count = cfg.nodes;
  report.add_method(std::move(mr));
  obs::SpanDocBuilder doc;
  doc.add_method(method_name(m), spans, cfg.nodes);

  std::string hexes;
  for (const std::string& body :
       {obs::to_json(registry), trace.json(), report.timeline_json(), doc.spans_json()}) {
    Digest d;
    d.str(body);
    hexes += (hexes.empty() ? "" : " ") + d.hex();
  }
  return hexes;
}

std::string single_sinks(Method m) {
  return sink_digests(m,
                      [m](const ExperimentConfig& c) { return run_single_data(c, 160, m); });
}

std::string multi_sinks(Method m) {
  return sink_digests(m, [m](const ExperimentConfig& c) { return run_multi_data(c, 64, m); });
}

std::string dynamic_sinks(Method m, const sim::FaultPlan* faults = nullptr) {
  auto cfg = golden_cfg();
  cfg.faults = faults;
  return sink_digests(
      m, [m](const ExperimentConfig& c) { return run_dynamic(c, 96, m); }, cfg);
}

std::string paraview_sinks(Method m) {
  return sink_digests(m, [m](const ExperimentConfig& c) { return run_paraview(c, m).run; });
}

std::string iterative_sinks(Method m) {
  return sink_digests(
      m, [m](const ExperimentConfig& c) { return run_iterative(c, 64, 3, m).run; });
}

TEST(GoldenSinks, SingleData) {
  EXPECT_EQ(single_sinks(Method::kBaseline),
            "8b988aeaf2a9445f 8bd9cc29fd75932b 40b9a8cd9795fce7 d4e9b79344028c22");
  EXPECT_EQ(single_sinks(Method::kOpass),
            "b77ef9b0930ca1d0 ef15d8ff5571a48b fc0a845afa7319b4 ecbd2337beaabcda");
}

TEST(GoldenSinks, MultiData) {
  EXPECT_EQ(multi_sinks(Method::kBaseline),
            "94903694d3da72db a9805997da0f3e52 d2f2367ad1e15c30 f94cf67ae693998d");
  EXPECT_EQ(multi_sinks(Method::kOpass),
            "db0c3591f6e85a81 215f07fd1267e7a5 dde9c04f4e8757e5 45302fdbca0ffdda");
}

TEST(GoldenSinks, Dynamic) {
  EXPECT_EQ(dynamic_sinks(Method::kBaseline),
            "a562bd9fc94ac65c 88506995839e5853 554886d7ef61db5c c776ee8467646741");
  EXPECT_EQ(dynamic_sinks(Method::kOpass),
            "470d979e59fcee88 9d3c3ba91f152c8f 3e9db3cad6e64527 c3692f5eb7d838d5");
  // Node 5 crashes at t = 2 s: the Opass run re-homes its list and re-plans
  // the remaining tasks, so opass.dynamic.* and the recovery traffic land in
  // every document.
  sim::FaultPlan plan;
  sim::FaultEvent crash;
  crash.at = 2.0;
  crash.kind = sim::FaultKind::kCrash;
  crash.node = 5;
  plan.events.push_back(crash);
  EXPECT_EQ(dynamic_sinks(Method::kOpass, &plan),
            "93d1041d114db8c3 3af8634397247d3c 4b91689c1370694b fb99e988acb79245");
}

TEST(GoldenSinks, ParaView) {
  EXPECT_EQ(paraview_sinks(Method::kBaseline),
            "604e09398393990c ca219e3a9e3ed512 cc20794c51074e1b dacfd2c5668d38e8");
  EXPECT_EQ(paraview_sinks(Method::kOpass),
            "242d0b7fcf4d1fe0 4e0840e2da71ac84 566611c03cd56ee5 62423a0bcc9240e7");
}

TEST(GoldenSinks, Iterative) {
  EXPECT_EQ(iterative_sinks(Method::kBaseline),
            "7173d2acf4d19949 eccb049ceec36546 2b707f2d92f7769d 14bdb05f28fdf6b2");
  EXPECT_EQ(iterative_sinks(Method::kOpass),
            "2c2eb2411d71560d 0ff0c8271364f2e9 3f841cbaf47d2a32 109b1fc0affac616");
}

/// The service replay's metrics, timeline and span documents, rendered as
/// opass_cli --service-trace renders them.
TEST(GoldenSinks, ServiceTraceReplay) {
  ServiceTraceConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 42;
  cfg.batch_window = 0.5;
  obs::MetricsRegistry registry;
  obs::TimelineRecorder recorder;
  obs::SpanLog spans;
  cfg.metrics = &registry;
  cfg.timeline = &recorder;
  cfg.spans = &spans;
  const auto out = replay_service_trace(
      cfg, load_service_trace(OPASS_SOURCE_DIR "/bench/traces/service_small.trace"));

  obs::ReportBuilder report;
  obs::MethodReport mr;
  mr.name = "service";
  mr.timeline = &recorder;
  mr.makespan = recorder.end_time();
  mr.local_fraction = out.local_byte_fraction;
  report.add_method(std::move(mr));
  obs::SpanDocBuilder doc;
  doc.add_method("service", spans, /*node_count=*/0);
  Digest metrics, timeline, span_doc;
  metrics.str(obs::to_json(registry));
  timeline.str(report.timeline_json());
  span_doc.str(doc.spans_json());
  EXPECT_EQ(metrics.hex(), "00332fb0904a825e");
  EXPECT_EQ(timeline.hex(), "8723cab379bd80e5");
  EXPECT_EQ(span_doc.hex(), "702997af7bb791dc");
}

TEST(GoldenScenarios, ServiceTraceReplay) {
  ServiceTraceConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 42;
  cfg.batch_window = 0.5;
  const auto out = replay_service_trace(
      cfg, load_service_trace(OPASS_SOURCE_DIR "/bench/traces/service_small.trace"));
  Digest d;
  d.str(out.rendered);
  EXPECT_EQ(d.hex(), "7606ccbdf0799645");
}

/// Two processes per node, so a node's process bucket holds more than one
/// entry and candidate lists gathered from several replicas need sorting.
core::ProcessPlacement two_per_node(const dfs::NameNode& nn) {
  return core::one_process_per_node(nn, 2 * nn.node_count());
}

/// Every job's status, in `ids` order, then every process's load.
void digest_jobs(Digest& d, const core::PlannerService& service,
                 const std::vector<core::JobId>& ids) {
  for (core::JobId id : ids) {
    const auto& status = service.status(id);
    d.u64(static_cast<std::uint64_t>(status.state));
    d.u64(status.batch);
    d.u64(status.locally_matched);
    d.u64(status.randomly_filled);
    d.u64(status.local_bytes);
    d.assignment(status.assignment);
  }
  for (std::uint32_t load : service.process_load()) d.u64(load);
}

TEST(GoldenScenarios, ServiceFairShareTwoPerNode) {
  dfs::NameNode nn(dfs::Topology::single_rack(16), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(7);
  const auto tasks = workload::make_single_data_workload(nn, 240, policy, rng);
  core::ServiceOptions options;
  options.seed = 5;
  options.batch_window = 0.5;
  core::PlannerService service(nn, two_per_node(nn), options);

  // Ten jobs of three tenants (weights 1, 2, 1) with uneven sizes; one job
  // completes and one planned job is cancelled mid-stream, so later batches
  // balance against uneven carried-over load.
  std::uint32_t next = 0;
  const auto submit = [&](std::uint32_t j, Seconds arrival) {
    core::JobRequest request;
    const std::uint32_t count = 12 + (j * 7) % 17;
    request.tasks = {tasks.begin() + next, tasks.begin() + next + count};
    next += count;
    request.tenant = j % 3;
    request.weight = j % 3 == 1 ? 2.0 : 1.0;
    request.arrival = arrival;
    return service.submit(std::move(request));
  };
  std::vector<core::JobId> ids;
  for (std::uint32_t j = 0; j < 5; ++j) ids.push_back(submit(j, 0.3 * j));
  service.advance_to(1.5);
  EXPECT_TRUE(service.complete(ids[1]));
  EXPECT_TRUE(service.cancel(ids[3]));
  for (std::uint32_t j = 5; j < 10; ++j) ids.push_back(submit(j, 1.5 + 0.2 * j));
  service.drain();

  Digest d;
  digest_jobs(d, service, ids);
  d.u64(service.counters().batches);
  EXPECT_EQ(d.hex(), "5ffed0415a7f7958");
}

/// Arrival streams on one rack at r = 3: `jobs` jobs of `tasks_per_job`
/// single-chunk tasks, one every 0.05 virtual seconds, cycling four tenants
/// of weights 1, 2, 1, 2, coalesced in a 0.2 s window. The layout rng is
/// seeded `seed`, the service `seed * 7919 + 1`; the service advances to
/// each arrival in turn, then drains.
TEST(GoldenScenarios, ServiceArrivalStreams) {
  struct Row {
    std::uint32_t nodes;
    std::uint32_t jobs;
    std::uint32_t tasks_per_job;
    std::uint64_t seed;
    std::uint32_t batches;
    std::uint64_t locally_matched;
    const char* digest;
  };
  const Row rows[] = {
      {64, 20, 32, 11, 5, 625, "418cd32cfd8e384e"},
      {256, 40, 64, 12, 9, 2400, "d99b029de539f013"},
      {1024, 64, 128, 13, 13, 6539, "16239d48f20692b9"},
  };
  constexpr Seconds kArrivalGap = 0.05;
  for (const Row& row : rows) {
    dfs::NameNode nn(dfs::Topology::single_rack(row.nodes), 3, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(row.seed);
    const auto tasks =
        workload::make_single_data_workload(nn, row.jobs * row.tasks_per_job, policy, rng);
    core::ServiceOptions options;
    options.seed = row.seed * 7919 + 1;
    options.batch_window = 0.2;
    core::PlannerService service(nn, core::one_process_per_node(nn), options);

    std::vector<core::JobId> ids;
    for (std::uint32_t j = 0; j < row.jobs; ++j) {
      core::JobRequest request;
      request.tenant = j % 4;
      request.weight = 1.0 + static_cast<double>(request.tenant % 2);
      request.arrival = j * kArrivalGap;
      const auto first = tasks.begin() + static_cast<std::ptrdiff_t>(j * row.tasks_per_job);
      request.tasks.assign(first, first + row.tasks_per_job);
      ids.push_back(service.submit(std::move(request)));
    }
    for (std::uint32_t j = 0; j < row.jobs; ++j) service.advance_to(j * kArrivalGap);
    service.drain();

    const core::ServiceCounters& c = service.counters();
    EXPECT_EQ(c.batches, row.batches) << row.nodes << " nodes";
    EXPECT_EQ(c.locally_matched, row.locally_matched) << row.nodes << " nodes";
    Digest d;
    digest_jobs(d, service, ids);
    for (std::uint64_t v : {c.jobs_submitted, c.jobs_planned, c.jobs_cancelled,
                            c.jobs_completed, c.tasks_planned, c.locally_matched,
                            c.randomly_filled})
      d.u64(v);
    for (std::uint32_t v : {c.batches, c.max_batch_tasks, c.max_queue_depth}) d.u64(v);
    EXPECT_EQ(d.hex(), row.digest) << row.nodes << " nodes";
  }
}

TEST(GoldenScenarios, IncrementalThreeBatches) {
  dfs::NameNode nn(dfs::Topology::single_rack(16), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(9);
  const auto tasks = workload::make_single_data_workload(nn, 110, policy, rng);
  core::IncrementalPlanner planner(nn, two_per_node(nn));

  // Batch sizes 37, 50, 23 over 32 processes leave uneven load between
  // batches, so the quotas of batches two and three are not uniform.
  Rng fill(3);
  Digest d;
  std::uint32_t from = 0;
  for (std::uint32_t size : {37u, 50u, 23u}) {
    const std::vector<runtime::Task> batch(tasks.begin() + from, tasks.begin() + from + size);
    from += size;
    const auto plan = planner.match_batch(batch, fill, {});
    d.assignment(plan.assignment);
    d.u64(plan.locally_matched);
    d.u64(plan.randomly_filled);
    d.u64(plan.stats.local_bytes);
  }
  for (std::uint32_t load : planner.load()) d.u64(load);
  EXPECT_EQ(d.hex(), "0f0844b5621f09c6");
}

/// Rack-aware plan on four racks (rack = node % 4) with two processes on
/// each of nodes 0-7, so a chunk whose replicas all sit on nodes 8-15 can
/// only be rack-local; with r = 2 some chunks hold both replicas in one rack.
std::string rack_aware_digest(std::uint32_t replication) {
  dfs::NameNode nn(dfs::Topology::uniform_racks(16, 4), replication, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(13);
  const auto tasks = workload::make_single_data_workload(nn, 120, policy, rng);
  core::ProcessPlacement placement;
  for (std::uint32_t p = 0; p < 16; ++p) placement.push_back(p % 8);
  Rng fill(4);
  core::PlanOptions options;
  options.planner = core::PlannerKind::kRackAware;
  const auto result = core::plan({&nn, &tasks, &placement, &fill}, options);
  EXPECT_GT(result.rack_local, 0u);
  Digest d;
  d.assignment(result.assignment);
  d.u64(result.locally_matched);
  d.u64(result.rack_local);
  d.u64(result.randomly_filled);
  return d.hex();
}

TEST(GoldenScenarios, RackAwareFourRacks) {
  EXPECT_EQ(rack_aware_digest(1), "3abbb2f55c68a1df");
  EXPECT_EQ(rack_aware_digest(2), "4a9170efce463643");
}

/// Single-data plan through core::plan() with two processes per node, so a
/// replica's node contributes two locality edges and the order of a task's
/// edges shapes the flow Dinic finds. With r = 1 some nodes hold more chunks
/// than their processes' quota, so the random fill runs as well.
std::string single_two_per_node_digest(std::uint32_t replication) {
  dfs::NameNode nn(dfs::Topology::single_rack(16), replication, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(11);
  const auto tasks = workload::make_single_data_workload(nn, 200, policy, rng);
  const auto placement = two_per_node(nn);
  Rng fill(6);
  const auto result = core::plan({&nn, &tasks, &placement, &fill});
  if (replication == 1) {
    EXPECT_GT(result.randomly_filled, 0u);
  }
  Digest d;
  d.assignment(result.assignment);
  d.u64(result.locally_matched);
  d.u64(result.randomly_filled);
  return d.hex();
}

TEST(GoldenScenarios, SingleDataTwoPerNode) {
  EXPECT_EQ(single_two_per_node_digest(1), "638e3288140f9863");
  EXPECT_EQ(single_two_per_node_digest(2), "f4ddfe4d2546f1ed");
}

/// Byte-weighted plan of single-chunk files of mixed sizes (8-63 MiB, one
/// file per task). With r = 1 some files get no flow and go through the
/// largest-first fill; with r = 2 a file's byte flow splits evenly between
/// two processes, so the lowest-process tie rule picks its owner.
std::string weighted_mixed_digest(std::uint32_t replication) {
  dfs::NameNode nn(dfs::Topology::single_rack(16), replication, 64 * kMiB);
  dfs::RandomPlacement policy;
  Rng rng(21);
  std::vector<runtime::Task> tasks;
  for (std::uint32_t i = 0; i < 120; ++i) {
    const Bytes size = (8 + rng.uniform(56)) * kMiB;
    const auto file =
        nn.create_file(std::string("f").append(std::to_string(i)), size, policy, rng);
    runtime::Task task;
    task.id = i;
    task.inputs = {nn.file(file).chunks[0]};
    tasks.push_back(std::move(task));
  }
  const auto placement = core::one_process_per_node(nn);
  Rng fill(8);
  core::PlanOptions options;
  options.planner = core::PlannerKind::kWeighted;
  const auto result = core::plan({&nn, &tasks, &placement, &fill}, options);
  if (replication == 1) {
    EXPECT_GT(result.randomly_filled, 0u);
  }
  Digest d;
  d.assignment(result.assignment);
  d.u64(result.locally_matched);
  d.u64(result.randomly_filled);
  d.u64(result.matched_bytes);
  return d.hex();
}

TEST(GoldenScenarios, WeightedMixedSizes) {
  EXPECT_EQ(weighted_mixed_digest(1), "5de492473e2d77a3");
  EXPECT_EQ(weighted_mixed_digest(2), "9bffbb6a4a1bf30f");
  EXPECT_EQ(weighted_mixed_digest(3), "6f8aa2421e7ae240");
}

/// A plan's assignment, every planner counter and its stats profile.
std::string plan_digest(const core::PlanResult& result) {
  Digest d;
  d.assignment(result.assignment);
  d.u64(result.locally_matched);
  d.u64(result.randomly_filled);
  d.u64(result.rack_local);
  d.u64(result.reassignments);
  d.u64(result.matched_bytes);
  d.u64(result.stats.total_bytes);
  d.u64(result.stats.local_bytes);
  d.u64(result.stats.task_count);
  d.u64(result.stats.max_tasks_per_process);
  d.u64(result.stats.min_tasks_per_process);
  return d.hex();
}

/// core::plan() on the planner-facade layouts: 80 single-chunk tasks (or 48
/// multi-input tasks) on two racks of eight nodes, r = 3, one process per
/// node, the fill rng seeded 9. Digests the assignment, every planner
/// counter and the stats profile.
std::string facade_digest(core::PlannerKind planner, std::uint64_t seed,
                          bool multi_input = false) {
  dfs::NameNode nn(dfs::Topology::uniform_racks(16, 2), 3);
  dfs::RandomPlacement policy;
  Rng rng(seed);
  const auto tasks = multi_input ? workload::make_multi_input_workload(nn, 48, policy, rng)
                                 : workload::make_single_data_workload(nn, 80, policy, rng);
  const auto placement = core::one_process_per_node(nn);
  Rng fill(9);
  core::PlanOptions options;
  options.planner = planner;
  return plan_digest(core::plan({&nn, &tasks, &placement, &fill}, options));
}

TEST(GoldenScenarios, PlanSingleData) {
  EXPECT_EQ(facade_digest(core::PlannerKind::kSingleData, 1), "c65a0e7c64fa59d5");
  EXPECT_EQ(facade_digest(core::PlannerKind::kSingleData, 2), "873d68b7cce806f5");
  EXPECT_EQ(facade_digest(core::PlannerKind::kSingleData, 3), "bc89f5ada0bf3b35");
}

TEST(GoldenScenarios, PlanWeighted) {
  EXPECT_EQ(facade_digest(core::PlannerKind::kWeighted, 1), "8ea45d923b1d99c4");
  EXPECT_EQ(facade_digest(core::PlannerKind::kWeighted, 2), "bf150bb40c0da764");
  EXPECT_EQ(facade_digest(core::PlannerKind::kWeighted, 3), "ec463d0930cdb924");
}

TEST(GoldenScenarios, PlanRackAware) {
  EXPECT_EQ(facade_digest(core::PlannerKind::kRackAware, 1), "c65a0e7c64fa59d5");
  EXPECT_EQ(facade_digest(core::PlannerKind::kRackAware, 2), "873d68b7cce806f5");
  EXPECT_EQ(facade_digest(core::PlannerKind::kRackAware, 3), "bc89f5ada0bf3b35");
}

TEST(GoldenScenarios, PlanMultiData) {
  EXPECT_EQ(facade_digest(core::PlannerKind::kMultiData, 1), "e7bfd04837139f54");
  EXPECT_EQ(facade_digest(core::PlannerKind::kMultiData, 2), "ee2d78577d0844d4");
  EXPECT_EQ(facade_digest(core::PlannerKind::kMultiData, 3), "59b516fe14a70f74");
  EXPECT_EQ(facade_digest(core::PlannerKind::kMultiData, 4, /*multi_input=*/true),
            "22c1c5326e0c230b");
}

/// core::plan() on a single-data layout of `task_count` chunks, the layout
/// rng seeded `layout_seed` and the fill rng `fill_seed`. Every plan must
/// pass the auditor, per-process capacity included.
core::PlanResult scale_plan(core::PlannerKind planner, std::uint32_t nodes, std::uint32_t racks,
                            std::uint32_t replication, std::uint32_t task_count,
                            std::uint32_t processes_per_node = 1,
                            std::uint64_t layout_seed = 9, std::uint64_t fill_seed = 3) {
  dfs::NameNode nn(dfs::Topology::uniform_racks(nodes, racks), replication,
                   kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(layout_seed);
  const auto tasks = workload::make_single_data_workload(nn, task_count, policy, rng);
  const auto placement = core::one_process_per_node(nn, nodes * processes_per_node);
  Rng fill(fill_seed);
  core::PlanOptions options;
  options.planner = planner;
  auto result = core::plan({&nn, &tasks, &placement, &fill}, options);
  core::AuditOptions audit;
  audit.enforce_capacity = true;
  const auto report = core::audit_plan(nn, tasks, result.assignment, placement, audit);
  EXPECT_TRUE(report.ok()) << report.to_string();
  return result;
}

/// Single-data plans on one rack from 16 to 256 nodes at r = 1, 3 and 5, the
/// layout rng seeded `seed` and the fill rng `seed * 7919 + 1`.
TEST(GoldenScenarios, PlanSingleDataMatrix) {
  struct Row {
    std::uint32_t nodes;
    std::uint32_t replication;
    std::uint32_t tasks;
    std::uint64_t seed;
    std::uint32_t locally_matched;
    const char* digest;
  };
  const Row rows[] = {
      {16, 3, 160, 1, 160, "c324b156757eb835"},
      {64, 3, 640, 42, 640, "c6dbd41afb6a1a49"},
      {128, 3, 1280, 3, 1280, "b51406b093d367d1"},
      {64, 1, 640, 4, 566, "10ab790d79c15edb"},
      {64, 5, 640, 5, 640, "c4a06d025c5373ad"},
      {256, 3, 2560, 6, 2560, "9f25ce40b5c82c6a"},
      {256, 3, 10240, 7, 10240, "7bf4cb8b918a542a"},
  };
  for (const Row& row : rows) {
    const auto result = scale_plan(core::PlannerKind::kSingleData, row.nodes, 1,
                                   row.replication, row.tasks, 1, row.seed,
                                   row.seed * 7919 + 1);
    EXPECT_EQ(result.locally_matched, row.locally_matched) << row.nodes << " x " << row.tasks;
    EXPECT_EQ(plan_digest(result), row.digest) << row.nodes << " x " << row.tasks;
  }
}

/// The byte-weighted planner on 8,192 single-chunk files of 8-63 MiB on 256
/// nodes at r = 2, so byte flows split between processes.
std::string weighted_scale_digest() {
  dfs::NameNode nn(dfs::Topology::single_rack(256), 2, 64 * kMiB);
  dfs::RandomPlacement policy;
  Rng rng(21);
  std::vector<runtime::Task> tasks;
  for (std::uint32_t i = 0; i < 8192; ++i) {
    const Bytes size = (8 + rng.uniform(56)) * kMiB;
    const auto file =
        nn.create_file(std::string("f").append(std::to_string(i)), size, policy, rng);
    runtime::Task task;
    task.id = i;
    task.inputs = {nn.file(file).chunks[0]};
    tasks.push_back(std::move(task));
  }
  const auto placement = core::one_process_per_node(nn);
  Rng fill(8);
  core::PlanOptions options;
  options.planner = core::PlannerKind::kWeighted;
  return plan_digest(core::plan({&nn, &tasks, &placement, &fill}, options));
}

/// Three IncrementalPlanner batches over 1,024 nodes at r = 3; uneven batch
/// sizes leave the later batches uneven quotas.
std::string incremental_scale_digest() {
  dfs::NameNode nn(dfs::Topology::single_rack(1024), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(9);
  const auto tasks = workload::make_single_data_workload(nn, 30720, policy, rng);
  core::IncrementalPlanner planner(nn, core::one_process_per_node(nn));
  Rng fill(3);
  Digest d;
  std::uint32_t from = 0;
  for (std::uint32_t size : {12289u, 10240u, 8191u}) {
    const std::vector<runtime::Task> batch(tasks.begin() + from, tasks.begin() + from + size);
    from += size;
    const auto plan = planner.match_batch(batch, fill);
    d.assignment(plan.assignment);
    d.u64(plan.locally_matched);
    d.u64(plan.randomly_filled);
    d.u64(plan.stats.local_bytes);
  }
  for (std::uint32_t load : planner.load()) d.u64(load);
  return d.hex();
}

/// core::plan() at the repository benchmark's scale, where Dinic runs
/// several phases over tens of thousands of tasks. The 16-node pins above
/// need few phases, and the benchmark's own single-opass digest cannot tell
/// which process reads which chunk: every read there is local and
/// conflict-free.
TEST(GoldenScenarios, PlanAtBenchmarkScale) {
  using core::PlannerKind;
  // Single-data 1,024 x 40,960; r = 1 leaves tasks to the random fill.
  const auto sparse = scale_plan(PlannerKind::kSingleData, 1024, 1, 1, 40960);
  EXPECT_GT(sparse.randomly_filled, 0u);
  EXPECT_EQ(plan_digest(sparse), "23d614f6aa5258fe");
  EXPECT_EQ(plan_digest(scale_plan(PlannerKind::kSingleData, 1024, 1, 3, 40960)),
            "8fea74f68cdea365");
  EXPECT_EQ(weighted_scale_digest(), "c880085fae2dbc2c");
  // Rack-aware on 8 racks at r = 1: the rack phase matches what the node
  // phase leaves open.
  const auto rack = scale_plan(PlannerKind::kRackAware, 512, 8, 1, 16384);
  EXPECT_GT(rack.rack_local, 0u);
  EXPECT_EQ(plan_digest(rack), "8b61e56ab138b935");
  // Two processes per node: each replica contributes two locality edges.
  EXPECT_EQ(plan_digest(scale_plan(PlannerKind::kSingleData, 256, 1, 3, 10240, 2)),
            "524288397c7a641f");
  EXPECT_EQ(incremental_scale_digest(), "a6b2f00bbb3589a7");
}

}  // namespace
}  // namespace opass::exp
