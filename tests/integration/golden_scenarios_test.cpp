// Cross-commit golden pin for the five exp scenarios, the service replay and
// the batch/rack-aware planners. The other determinism suites compare a run
// with a second run of the same build; this one compares against constants
// recorded from an earlier commit, so a change that shifts any scenario's
// bytes (a different plan, a reordered read, a re-leveled rate) fails here
// even when it is self-consistent. Each digest is FNV-1a over the exact bits
// of a run's reduced output. When a change alters the model on purpose,
// re-record the constants and say why in the change log.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/service_trace.hpp"
#include "opass/incremental.hpp"
#include "opass/rack_aware.hpp"
#include "opass/service.hpp"
#include "workload/dataset.hpp"

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
  cfg.threads = 1;
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

TEST(GoldenScenarios, ParaView) {
  EXPECT_EQ(paraview_digest(Method::kBaseline), "f6ee84fda7ef09bc");
  EXPECT_EQ(paraview_digest(Method::kOpass), "d363dc281e66d381");
}

TEST(GoldenScenarios, Iterative) {
  EXPECT_EQ(iterative_digest(Method::kBaseline), "8407e08aff13e489");
  EXPECT_EQ(iterative_digest(Method::kOpass), "9cda3d19122139b0");
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
  d.u64(service.counters().batches);
  EXPECT_EQ(d.hex(), "5ffed0415a7f7958");
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
  const auto plan = core::assign_single_data_rack_aware(nn, tasks, placement, fill);
  EXPECT_GT(plan.rack_local, 0u);
  Digest d;
  d.assignment(plan.assignment);
  d.u64(plan.node_local);
  d.u64(plan.rack_local);
  d.u64(plan.random_filled);
  return d.hex();
}

TEST(GoldenScenarios, RackAwareFourRacks) {
  EXPECT_EQ(rack_aware_digest(1), "3abbb2f55c68a1df");
  EXPECT_EQ(rack_aware_digest(2), "4a9170efce463643");
}

}  // namespace
}  // namespace opass::exp
