// Shared pieces of the repository benchmark: host clocks, the in-memory span
// tracer, per-layer counter snapshots read from a Network's public counters
// and stats(), and the repetition loop every workload runs under.
//
// Everything here sits outside the library: the benchmark drives the public
// API (Network, WorkloadEngine, ScenarioExecutor, StandardOracles, routing)
// and observes it through public accessors only.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/network.h"

namespace perfbench {

double CpuSeconds();   // process CPU time
double WallSeconds();  // monotonic wall clock
double PeakRssMb();
// CPU seconds of a fixed kernel that uses no library code; timed between
// reps, its median tracks how fast this machine currently runs allocation-
// and cache-miss-heavy code (shared machines drift by tens of percent over
// minutes).  Negative if the kernel's result is wrong.
double CalibrationSeconds();

double Median(std::vector<double> values);

// FNV-1a, the hash the chaos runner fingerprints runs with.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t size);
std::uint64_t Fnv1a(std::uint64_t h, const std::string& s);
template <typename T>
std::uint64_t FnvValue(std::uint64_t h, const T& v) {
  return Fnv1a(h, &v, sizeof v);
}
// FNV-1a over the merged §6.7 event log, byte-compatible with the chaos
// runner's log_hash.
std::uint64_t HashMergedLog(const autonet::Network& net);
std::string Hex(std::uint64_t v);

// Phase and call spans, kept in memory and written out once at exit.  Each
// span names the layer (a module of the library, or "bench" for the
// benchmark's own work) whose public function it wraps.  A layer's self
// time is its spans' durations minus the parts covered by child spans.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    int parent;
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };

  int Begin(const char* name, const char* layer);
  void End(int id);

  // Self time in ms per layer over the subtree rooted at span `root`.
  std::map<std::string, double> SelfMs(int root) const;
  double DurationMs(int id) const;
  std::size_t size() const { return spans_.size(); }

  // Chrome/Perfetto trace-event JSON.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// RAII span; a null tracer makes it a no-op, which is the untraced run.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, const char* layer)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, layer) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// Deterministic per-layer counts read from the Network's metric registry,
// the switches', hosts' and autopilots' stats(), and the flight recorder.
// Snapshot before and after a phase; Delta() gives the phase's counts.
class LayerCounts {
 public:
  static LayerCounts Read(autonet::Network& net);
  // Counts accrued since `before`.  High-water marks are taken as-is, and a
  // restarted switch's autopilot contributes its counts since the restart.
  std::map<std::string, double> Delta(const LayerCounts& before) const;

 private:
  std::map<std::string, double> totals_;
  std::map<std::string, double> hwm_;
  std::vector<const autonet::Autopilot*> autopilots_;
  std::vector<autonet::Autopilot::Stats> autopilot_stats_;
};

// Convergence as the benchmark judges it, not from WaitForConsistency's
// return value (which also reports success when the network happens to be
// consistent at the deadline): reaching the deadline, or a non-empty
// CheckConsistency(), is a failure, and the time is then censored at the
// deadline.
struct Convergence {
  bool converged = false;
  double ms = 0;  // from `start`; a lower bound when not converged
};
Convergence JudgeConvergence(autonet::Network& net, autonet::Tick start,
                             autonet::Tick deadline);

// Median µs per call of ComputeSpanningTree and of BuildForwardingTable on
// the control plane's converged topology (taken from the first alive switch
// that holds one).  Both zero when no switch has a topology.
struct RoutingTimes {
  double spanning_tree_us = 0;
  double forwarding_table_us = 0;
};
RoutingTimes TimeRouting(autonet::Network& net);

// One unit of a workload's work: its set-up, its timed phase, and what the
// benchmark checked and counted.
struct Rep {
  int input = 0;  // reps with equal input ran identical inputs
  bool traced = false;
  double setup_s = 0;     // CPU: build, boot, converge, register hosts
  double boot_s = 0;      // CPU: the boot part of set-up
  double timed_cpu_s = 0;  // CPU of the timed phase
  double sim_s = 0;        // simulated seconds the timed phase advanced
  // End-to-end rate samples, one per measuring window of the timed phase
  // (AddWindow); the reported value is the median over every window of
  // every untraced rep.  Many short windows keep a burst of host noise from
  // moving the median.
  std::vector<double> cpu_s_per_sim_s;
  std::vector<double> payload_mb_per_cpu_s;  // client payload delivered intact
  std::vector<double> ops_per_cpu_s;         // completed operations
  std::vector<double> calibration;  // kernel timings taken during the rep
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::string> errors;    // failed correctness checks
  std::vector<std::string> failures;  // failed operations, one line each
  std::map<std::string, double> layer;  // per-layer metrics (traced reps)
  std::map<std::string, double> paper;  // simulated results, by name
  int root_span = -1;
};

// Records one measuring window: CPU seconds spent, simulated seconds
// advanced, operations completed and payload bytes delivered in it.
void AddWindow(Rep* rep, double cpu_s, double sim_s, double ops,
               double payload_bytes);

// Times the calibration kernel `calls` times into rep->calibration.  Call
// it only where no network is alive, as between reps: the kernel's timing
// depends on the heap it runs on.
void Calibrate(Rep* rep, int calls);

// Builds a network for `spec`, boots it and waits for a consistent
// configuration and for every host to register: the set-up of bulk and RPC
// reps.  Adds its CPU seconds to rep->setup_s (the boot part also to
// rep->boot_s); *error is set when the boot does not converge.
std::unique_ptr<autonet::Network> SetUp(const autonet::TopoSpec& spec,
                                        Tracer* tracer, Rep* rep,
                                        std::string* error);

class Workload {
 public:
  virtual ~Workload() = default;
  // Runs repetition `index`; the tracer is null on untraced reps.
  virtual Rep Run(int index, Tracer* tracer) = 0;
  // CPU seconds of one more set-up like a rep's, for the setup_s median.
  virtual double SetupOnce() = 0;
  // Checks made once per invocation, outside the timed reps.
  virtual void Verify(std::vector<std::string>* /*errors*/) {}
  // Units of the paper metrics this workload reports in Rep::paper.
  virtual std::map<std::string, std::string> PaperUnits() const = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // where the spans go in a traced run
};

// Repeats the workload for the time budget, checks determinism across reps
// with equal inputs, and prints the result: human-readable lines, then one
// JSON line with every metric (value, unit, direction).  Returns the exit
// code.
int RunBenchmark(const Options& options, Workload* workload);

// splitmix64: the benchmark's own generator for seed-derived inputs.
std::uint64_t SplitMix64(std::uint64_t* state);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
