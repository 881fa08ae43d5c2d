// The benchmark's five workloads and the host-time tracer of its staged
// (--traced) replicas. README.md gives the reason each workload exists and
// the layer each one stresses or bypasses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace opass::bench {

/// FNV-1a (64-bit) over a run's outputs.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void f64(double value) { bytes(&value, sizeof value); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Host-time spans of the staged replicas, kept in memory and exported as
/// Chrome trace "X" events when the benchmark ends. Spans are opened around
/// each call into a layer from the benchmark's own code; a span's self time
/// (its duration minus its child spans and the time charged to aggregated
/// children) is its layer's cost. Spans named "bench.*" are the benchmark's
/// own bookkeeping and are excluded from the staged run's time.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    std::string name;
    std::uint32_t run = 0;
    std::uint32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t charged_ns = 0;  ///< time of aggregated children (charge())
  };

  /// Closes its span on end() or destruction. Inactive when default-built or
  /// built from a null tracer, so untraced code paths can share the calls.
  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, const char* name);
    Scope(Scope&& other) noexcept { *this = std::move(other); }
    Scope& operator=(Scope&& other) noexcept;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { end(); }
    void end();

   private:
    Tracer* tracer_ = nullptr;
    std::uint32_t index_ = 0;
  };

  /// What one staged run measured.
  struct Run {
    double total_ms = 0;  ///< root span minus the bench.* spans inside it
    /// Layer self times ("<span name>_ms") and counts, summed over the run.
    std::map<std::string, double> values;
    /// Per-call samples (e.g. the planning latency of each service job).
    std::map<std::string, std::vector<double>> samples;
  };

  /// Open the root span of one staged run of `workload`.
  void begin_run(const std::string& workload);
  /// Close the root span and reduce the run's spans.
  Run end_run();

  Scope span(const char* name) { return Scope(this, name); }

  /// Charge `ns` spent in aggregated calls (too many to span one by one) to
  /// layer `layer` and take it out of the innermost open span's self time.
  void charge(const char* layer, std::int64_t ns);
  void add(const std::string& name, double value) { run_.values[name] += value; }
  void sample(const std::string& name, double value) { run_.samples[name].push_back(value); }

  /// Counts are deterministic, so they are collected on the first staged run
  /// of each workload only.
  bool counting() const { return counting_; }
  void set_counting(bool on) { counting_ = on; }

  /// The spans of the first kExportedRuns runs as a Chrome trace document.
  std::string chrome_json() const;

  static std::int64_t now_ns();

 private:
  /// Bounds the export (a few MB) however long a traced run lasts.
  static constexpr std::size_t kExportedRuns = 400;

  std::vector<Span> spans_;
  std::vector<std::string> run_names_;  ///< workload of each run id
  std::vector<std::uint32_t> open_;     ///< stack of open span indices
  std::size_t run_first_ = 0;           ///< first span of the current run
  Run run_;
  bool counting_ = false;
};

/// Digest of a run's outputs plus the first broken invariant (empty when
/// every invariant holds).
struct Check {
  std::uint64_t digest = 0;
  std::string error;
};

/// One benchmark workload.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One run through the entry point opass_cli uses; keeps its outputs.
  virtual void run() = 0;
  /// Staged replica of run(): the same library calls in the same order and
  /// on the same RNG streams, each call into a layer inside a span.
  virtual void run_staged(Tracer& tracer) = 0;
  /// Digest and invariants of the last run's outputs, which it releases.
  virtual Check verify() = 0;
};

/// The workload names, in the fixed order rounds run them.
const std::vector<std::string>& workload_names();

/// Build a workload from its name and the input seed; throws
/// std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace opass::bench
