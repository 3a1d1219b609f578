// The chaos campaign runner: sweeps scenarios x seeds x topologies across a
// worker pool (src/common/pool.h), one fully independent deterministic
// Simulator/Network per run, evaluates the invariant-oracle battery at each
// run's quiescence point, and aggregates verdicts, reconfiguration timings,
// and merged metric snapshots into a JSON campaign report.
//
// Every run is a pure function of (scenario, topology, seed): a violation is
// reported with a one-line reproducer (`chaosrun --scenario S --topo T
// --seed N`) that replays exactly that run.  Workers accumulate into
// worker-local registries and merge after joining, so runs never contend on
// a lock.
//
// RunOne is the one run path: the explorer and the live injector
// (src/check/) boot, judge and explain their runs with its steps below.
#ifndef SRC_CHAOS_RUNNER_H_
#define SRC_CHAOS_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/chaos/oracles.h"
#include "src/chaos/scenario.h"
#include "src/common/histogram.h"
#include "src/core/network.h"
#include "src/obs/metrics.h"
#include "src/topo/spec.h"
#include "src/workload/slo.h"

namespace autonet {
namespace obs {
class PostMortem;
}  // namespace obs

namespace chaos {

struct Violation {
  std::string oracle;
  std::string detail;
  std::string reproducer;  // a chaosrun command line replaying this run
  // Flight-recorder forensics for the failed run (same for every violation
  // of the run): the blame chain of the last reconfiguration epoch and the
  // full per-epoch timeline with phase breakdowns (src/obs/postmortem.h).
  std::string blame;
  std::string timeline;
};

struct TopologyCase {
  std::string name;
  TopoSpec spec;
};

// The named topologies a reproducer line or a schedule id can refer to,
// including the explorer's pair2, line3 and ring4.  Unknown names leave
// *error set.  StandardTopologyNames() is the default campaign matrix.
TopoSpec TopologyByName(const std::string& name, std::string* error);
std::vector<std::string> StandardTopologyNames();
std::vector<std::string> AllTopologyNames();

struct CampaignConfig {
  std::vector<Scenario> scenarios;
  std::vector<TopologyCase> topologies;
  std::vector<std::uint64_t> seeds;
  int jobs = 0;  // worker threads; 0 = hardware concurrency

  // Convergence deadline per run: base + per_hop * diameter of the healthy
  // topology, following the paper's conjecture that reconfiguration time is
  // a function of the maximum switch-to-switch distance (section 6.6.5,
  // cross-checked by bench E2).
  Tick convergence_base = 30 * kSecond;
  Tick convergence_per_hop = 2 * kSecond;
  Tick quiet = 100 * kMillisecond;

  NetworkConfig network;  // applied to every run's Network

  // Campaign-level application workload (src/workload/): when enabled, every
  // run drives it across the fault script and is additionally judged by the
  // SLO oracles.  A scenario-level `workload` line overrides this.  Disabled
  // by default so baseline campaigns stay byte-identical.
  workload::Spec workload;
  // Campaign-level adversary (src/adversary/): when enabled, every run arms
  // the feedback-driven fault engine at script start and is driven until the
  // engine retires.  A scenario-level `adversary` line overrides this.
  // Disabled by default so baseline campaigns stay byte-identical.
  adversary::Spec adversary;
  workload::SloBudgetConfig slo_budget;
  // Workload phase lengths: steady-state before the script (the latency
  // baseline), recovery after quiescence (the post-reconfiguration sample),
  // and the drain grace for in-flight ops before the books close.
  Tick slo_steady = 400 * kMillisecond;
  Tick slo_recovery = 1200 * kMillisecond;
  Tick slo_drain = 2 * kSecond;

  // Oracle battery factory; default StandardOracles.  Tests substitute
  // deliberately broken oracles here to prove violations are caught.
  std::function<std::vector<std::unique_ptr<Oracle>>()> oracles;

  // Command stem used when formatting reproducer lines.
  std::string reproducer_stem = "chaosrun";
};

struct RunResult {
  std::string scenario;
  std::string topology;
  std::uint64_t seed = 0;
  bool ok = false;
  std::vector<Violation> violations;
  double converge_ms = -1;  // sim time from script start to consistency
  double reconfig_ms = -1;  // duration of the last reconfiguration wave
  std::uint64_t log_hash = 0;      // FNV-1a over the merged event log
  std::uint64_t metrics_hash = 0;  // FNV-1a over the metrics JSON snapshot
  double wall_ms = 0;              // host wall clock for this run
  std::vector<std::string> resolved_actions;

  // Adversary results; `adversary` is empty when the run had none.  The
  // transcript is one line per observation/move and its FNV-1a hash is
  // byte-identical across replays of the same (scenario, topology, seed).
  std::string adversary;
  std::vector<std::string> adversary_transcript;
  std::uint64_t adversary_hash = 0;
  int adversary_moves = 0;

  // Workload / SLO results; `workload` is empty when the run had none.
  std::string workload;
  std::string slo_json;  // full workload::SloReport::ToJson()
  double slo_max_outage_ms = -1;
  double slo_steady_p999_ms = -1;
  double slo_recovery_p999_ms = -1;
  std::uint64_t slo_ops = 0;
  std::uint64_t slo_recovery_lost = 0;
  int slo_outage_windows = 0;
};

struct CampaignReport {
  std::vector<RunResult> runs;
  int passed = 0;
  int failed = 0;
  int jobs = 1;
  double wall_ms = 0;
  // Set by the CLI when it re-runs the campaign single-threaded to record
  // the parallel speedup in the report; negative = not measured.
  double jobs1_wall_ms = -1;

  Histogram reconfig_ms;   // per-run last-wave durations, campaign-wide
  Histogram converge_ms;   // per-run script-to-consistency times
  Histogram run_wall_ms;   // per-run host wall clock
  Histogram slo_outage_ms;  // per-run worst flow outage (workload runs only)
  obs::MetricRegistry metrics;  // all runs' registries, merged

  bool AllPassed() const { return failed == 0; }
  // The one-line reproducers of every violation, in run order.
  std::vector<std::string> ReproducerLines() const;
  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;
};

// --- the run steps every harness shares ---

// Now + convergence_base + convergence_per_hop * the healthy diameter: the
// deadline for the boot and for the convergence oracle.
Tick ConvergenceDeadline(Network& net, const CampaignConfig& config);

// Arms the flight recorder, boots, waits for a consistent baseline by
// ConvergenceDeadline, then for the hosts to register.  Returns the
// "bootstrap" violation detail, or "" once the baseline holds.
std::string BootToBaseline(Network& net, const CampaignConfig& config);

// Runs the oracle battery (config.oracles, else StandardOracles) and calls
// violate(name, detail) per failure.  Returns the sim time the convergence
// oracle saw the network settle, or -1.
Tick JudgeRun(
    Network& net, const CampaignConfig& config,
    const std::function<void(const std::string&, const std::string&)>& violate);

// When there are violations or `postmortem` is non-null, reconstructs the
// flight record: stamps each violation with the timeline and the last
// epoch's blame chain, and moves the PostMortem into *postmortem.
void ExplainRun(Network& net, std::vector<Violation>* violations,
                obs::PostMortem* postmortem);

// Executes a single (scenario, topology, seed) run — the reproducer path.
// When `merge_metrics` is non-null the run's full metric registry is merged
// into it before the Network is torn down; `postmortem`, when non-null,
// receives the run's reconstructed flight record.
RunResult RunOne(const CampaignConfig& config, const Scenario& scenario,
                 const TopologyCase& topo, std::uint64_t seed,
                 obs::MetricRegistry* merge_metrics = nullptr,
                 obs::PostMortem* postmortem = nullptr);

CampaignReport RunCampaign(const CampaignConfig& config);

}  // namespace chaos
}  // namespace autonet

#endif  // SRC_CHAOS_RUNNER_H_
