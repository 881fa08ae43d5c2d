// Cross-commit golden pin for the five exp scenarios and the service replay.
// The other determinism suites compare a run with a second run of the same
// build; this one compares against constants recorded from an earlier
// commit, so a change that shifts any scenario's bytes (a different plan, a
// reordered read, a re-leveled rate) fails here even when it is
// self-consistent. Each digest is FNV-1a over the exact bits of a run's
// reduced output. When a change alters the model on purpose, re-record the
// constants and say why in the change log.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/service_trace.hpp"

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

}  // namespace
}  // namespace opass::exp
