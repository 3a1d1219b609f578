// chaos_corpus: the 13-scenario default chaos corpus on torus4x4 and
// srclan16 with the command-line seed, one run after another, each judged
// by the standard oracle battery.  The work is the control plane and its
// checkers: autopilot reacting to every fault kind, routing, the oracles
// (legality, CDG) and the armed flight recorder; the data plane carries only
// the delivery oracle's probes.
//
// Each run is driven here from the public pieces the chaos runner's RunOne
// uses (Network, ScenarioExecutor, StandardOracles), so each oracle can be
// timed on its own; Verify() checks that every run reproduces RunOne's
// verdict and fingerprints.
#include <algorithm>
#include <memory>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/workloads.h"
#include "src/chaos/corpus.h"
#include "src/chaos/executor.h"
#include "src/chaos/oracles.h"
#include "src/chaos/runner.h"

namespace perfbench {
namespace {

using autonet::Delivery;
using autonet::Network;
using autonet::Tick;
namespace chaos = autonet::chaos;

struct Outcome {
  bool ok = false;
  std::vector<std::string> violated;  // oracle names
  bool converged = false;
  double converge_ms = -1;
  double reconfig_ms = -1;
  std::uint64_t log_hash = 0;
  std::uint64_t metrics_hash = 0;
  std::uint64_t record = 0;  // probe delivery record
  double cpu_s = 0;          // timed phase: script and oracles
  double sim_s = 0;
  double payload_bytes = 0;
};

class ChaosCorpus : public Workload {
 public:
  explicit ChaosCorpus(std::uint64_t seed)
      : seed_(seed), scenarios_(chaos::DefaultCorpus()) {
    for (const char* name : {"torus4x4", "srclan16"}) {
      std::string error;
      autonet::TopoSpec spec = chaos::TopologyByName(name, &error);
      if (!error.empty()) {
        setup_error_ = error;
      }
      topologies_.push_back({name, spec});
    }
    for (const chaos::Scenario& s : scenarios_) {
      if (s.workload.enabled() || s.adversary.enabled()) {
        setup_error_ = "scenario " + s.name +
                       " carries a workload or adversary, which this "
                       "benchmark does not drive";
      }
    }
  }

  Rep Run(int index, Tracer* tracer) override;
  double SetupOnce() override;
  void Verify(std::vector<std::string>* errors) override;

  std::map<std::string, std::string> PaperUnits() const override {
    return {{"runs", "count"},
            {"failed_runs", "count"},
            {"reconfig_ms", "ms"},
            {"converge_ms", "ms"},
            {"converge_censored", "count"},
            {"sim_ms", "ms"}};
  }

 private:
  // Builds and boots one run's network as RunOne does, with the flight
  // recorder armed; adds the CPU seconds to rep->setup_s and rep->boot_s.
  std::unique_ptr<Network> SetUpRun(const chaos::TopologyCase& topo,
                                    Tracer* tracer, Rep* rep, bool* booted);
  // One (scenario, topology) run; adds its costs and counts to `rep`.
  Outcome RunScenario(const chaos::Scenario& scenario,
                      const chaos::TopologyCase& topo, Tracer* tracer,
                      Rep* rep, std::map<std::string, double>* layer);
  std::string Reproducer(const chaos::Scenario& s,
                         const chaos::TopologyCase& t) const {
    return config_.reproducer_stem + " --scenario " + s.name + " --topo " +
           t.name + " --seed " + std::to_string(seed_);
  }

  std::uint64_t seed_;
  std::vector<chaos::Scenario> scenarios_;
  std::vector<chaos::TopologyCase> topologies_;
  chaos::CampaignConfig config_;  // RunOne's defaults
  std::string setup_error_;
  std::vector<Outcome> first_pass_;  // what Verify() compares RunOne with
};

std::unique_ptr<Network> ChaosCorpus::SetUpRun(const chaos::TopologyCase& topo,
                                              Tracer* tracer, Rep* rep,
                                              bool* booted) {
  const double c0 = CpuSeconds();
  std::unique_ptr<Network> net;
  {
    Scope phase(tracer, "build", "bench");
    Scope call(tracer, "Network::Network", "core");
    net = std::make_unique<Network>(topo.spec, config_.network);
    net->sim().flight().Arm();
  }
  const double b0 = CpuSeconds();
  {
    Scope phase(tracer, "boot", "bench");
    Tick boot_deadline = config_.convergence_base +
                         config_.convergence_per_hop *
                             chaos::HealthyDiameter(*net);
    {
      Scope call(tracer, "Network::Boot", "core");
      net->Boot();
    }
    {
      Scope call(tracer, "Network::WaitForConsistency", "core");
      *booted = net->WaitForConsistency(boot_deadline, config_.quiet);
    }
    if (*booted) {
      Scope call(tracer, "Network::WaitForHostsRegistered", "core");
      net->WaitForHostsRegistered(net->sim().now() + 30 * autonet::kSecond);
    }
  }
  rep->boot_s += CpuSeconds() - b0;
  rep->setup_s += CpuSeconds() - c0;
  return net;
}

double ChaosCorpus::SetupOnce() {
  Rep rep;
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    for (const chaos::TopologyCase& t : topologies_) {
      bool booted = false;
      SetUpRun(t, nullptr, &rep, &booted);
    }
  }
  return rep.setup_s;
}

Outcome ChaosCorpus::RunScenario(const chaos::Scenario& scenario,
                                 const chaos::TopologyCase& topo,
                                 Tracer* tracer, Rep* rep,
                                 std::map<std::string, double>* layer) {
  Outcome out;
  Scope run(tracer, "run", "bench");
  bool booted = false;
  std::unique_ptr<Network> net = SetUpRun(topo, tracer, rep, &booted);
  if (!booted) {
    // RunOne stops here too, before fingerprinting.
    out.violated.push_back("bootstrap");
    return out;
  }
  // Observes the delivery oracle's probes: the run's payload and its
  // delivery record.
  double payload = 0;
  out.record = kFnvBasis;
  net->SetClientDeliveryHook([&](int host, const Delivery& d) {
    if (d.intact()) {
      payload += static_cast<double>(d.packet->payload.size());
    }
    out.record = FnvValue(out.record, host);
    out.record = FnvValue(out.record, d.delivered_at);
    out.record = FnvValue(out.record, d.packet->payload.size());
  });

  LayerCounts before = LayerCounts::Read(*net);
  const double t0 = CpuSeconds();
  chaos::ScenarioExecutor executor(net.get(), scenario, seed_);
  const Tick script_start = net->sim().now();
  {
    Scope phase(tracer, "fault", "bench");
    {
      Scope call(tracer, "ScenarioExecutor::Schedule", "chaos");
      executor.Schedule(script_start);
    }
    if (executor.script_end() > net->sim().now()) {
      Scope call(tracer, "Network::Run", "core");
      net->Run(executor.script_end() - net->sim().now());
    }
  }
  {
    Scope phase(tracer, "oracles", "bench");
    chaos::OracleContext ctx;
    ctx.net = net.get();
    ctx.quiet = config_.quiet;
    ctx.deadline = net->sim().now() + config_.convergence_base +
                   config_.convergence_per_hop * chaos::HealthyDiameter(*net);
    for (const auto& oracle : chaos::StandardOracles()) {
      const std::string name = oracle->name();
      double o0 = CpuSeconds();
      std::string detail;
      {
        Scope call(tracer, "Oracle::Check", "chaos");
        detail = oracle->Check(ctx);
      }
      (*layer)["chaos.oracle." + name + "_ms"] += (CpuSeconds() - o0) * 1e3;
      if (name == "convergence") {
        Scope call(tracer, "Network::CheckConsistency", "core");
        Convergence c = JudgeConvergence(*net, script_start, ctx.deadline);
        out.converged = c.converged;
        out.converge_ms = c.ms;
      }
      if (!detail.empty()) {
        out.violated.push_back(name);
      }
    }
  }
  out.cpu_s = CpuSeconds() - t0;
  out.sim_s = static_cast<double>(net->sim().now() - script_start) / 1e9;
  out.payload_bytes = payload;
  rep->timed_cpu_s += out.cpu_s;
  rep->sim_s += out.sim_s;

  Scope phase(tracer, "finalize", "bench");
  {
    Scope call(tracer, "LayerCounts::Read", "obs");
    for (const auto& [name, value] : LayerCounts::Read(*net).Delta(before)) {
      double& sum = (*layer)[name];
      sum = name == "fabric.fifo_hwm_bytes" ? std::max(sum, value)
                                            : sum + value;
    }
  }
  {
    Scope call(tracer, "fingerprint", "obs");
    double f0 = CpuSeconds();
    out.log_hash = HashMergedLog(*net);
    out.metrics_hash = Fnv1a(kFnvBasis, net->DumpMetricsJson());
    (*layer)["obs.fingerprint_ms"] += (CpuSeconds() - f0) * 1e3;
  }
  if (tracer != nullptr) {
    Scope call(tracer, "routing", "routing");
    RoutingTimes routing = TimeRouting(*net);
    (*layer)["routing.spanning_tree_us.sum"] += routing.spanning_tree_us;
    (*layer)["routing.forwarding_table_us.sum"] +=
        routing.forwarding_table_us;
  }
  Tick wave = net->LastReconfig().Duration();
  out.reconfig_ms = wave >= 0 ? static_cast<double>(wave) / 1e6 : -1;
  out.ok = out.violated.empty();
  net->SetClientDeliveryHook(nullptr);
  Scope call(tracer, "Network::~Network", "core");
  net.reset();
  return out;
}

Rep ChaosCorpus::Run(int /*index*/, Tracer* tracer) {
  Rep rep;
  Scope root(tracer, "rep", "bench");
  rep.root_span = root.id();
  if (!setup_error_.empty()) {
    rep.errors.push_back("chaos_corpus: " + setup_error_);
    return rep;
  }
  std::vector<Outcome> outcomes;
  std::map<std::string, double> layer;
  for (const chaos::Scenario& s : scenarios_) {
    // The pass is one window: calibrate across it, between runs.  Traced
    // reps report no end-to-end metric, so they skip it.
    if (tracer == nullptr) {
      Calibrate(&rep, 1);
    }
    for (const chaos::TopologyCase& t : topologies_) {
      outcomes.push_back(RunScenario(s, t, tracer, &rep, &layer));
    }
  }

  Scope phase(tracer, "summary", "bench");
  std::vector<double> reconfig;
  std::vector<double> converge;
  double censored = 0;
  double failed_runs = 0;
  rep.fingerprint = kFnvBasis;
  std::size_t i = 0;
  for (const chaos::Scenario& s : scenarios_) {
    for (const chaos::TopologyCase& t : topologies_) {
      const Outcome& o = outcomes[i++];
      rep.fingerprint = FnvValue(rep.fingerprint, o.log_hash);
      rep.fingerprint = FnvValue(rep.fingerprint, o.metrics_hash);
      rep.fingerprint = FnvValue(rep.fingerprint, o.record);
      if (o.reconfig_ms >= 0) {
        reconfig.push_back(o.reconfig_ms);
      }
      if (o.converge_ms >= 0) {
        converge.push_back(o.converge_ms);  // censored runs at their bound
      }
      censored += o.converged ? 0 : 1;
      // A run fails when an oracle fails, or when the benchmark judges that
      // it did not converge before its deadline.
      if (o.ok && o.converged) {
        continue;
      }
      ++failed_runs;
      std::string why;
      for (const std::string& v : o.violated) {
        why += (why.empty() ? "" : ", ") + v;
      }
      if (!o.converged) {
        why += std::string(why.empty() ? "" : ", ") + "converge censored";
      }
      rep.failures.push_back(Reproducer(s, t) + " (" + why + ")");
    }
  }
  layer["core.boot_ms"] = rep.boot_s * 1e3;
  rep.attempted = outcomes.size();
  rep.failed = static_cast<std::uint64_t>(failed_runs);

  // One measuring window per pass.  Per-scenario windows would let the
  // seed's mix of cheap and expensive scenarios move the median.  Simulated
  // time counts only the runs that passed: a failed run mostly idles out a
  // 40 s convergence deadline, and how many runs do so varies with the seed.
  double cpu = 0, payload = 0, passed_cpu = 0, passed_sim = 0;
  for (const Outcome& o : outcomes) {
    cpu += o.cpu_s;
    payload += o.payload_bytes;
    if (o.ok && o.converged) {
      passed_cpu += o.cpu_s;
      passed_sim += o.sim_s;
    }
  }
  if (cpu > 0 && passed_sim > 0) {
    rep.cpu_s_per_sim_s.push_back(passed_cpu / passed_sim);
    rep.payload_mb_per_cpu_s.push_back(payload / 1e6 / cpu);
    rep.ops_per_cpu_s.push_back(static_cast<double>(outcomes.size()) / cpu);
  }
  if (first_pass_.empty()) {
    first_pass_ = outcomes;
  }

  const double runs = static_cast<double>(outcomes.size());
  layer["routing.spanning_tree_us"] =
      layer["routing.spanning_tree_us.sum"] / runs;
  layer["routing.forwarding_table_us"] =
      layer["routing.forwarding_table_us.sum"] / runs;
  layer.erase("routing.spanning_tree_us.sum");
  layer.erase("routing.forwarding_table_us.sum");
  layer["autopilot.reconfig_ms"] = Median(reconfig);
  layer["core.converge_ms"] = Median(converge);
  layer["core.converge_censored"] = censored;
  layer["chaos.runs_failed"] = failed_runs;
  rep.layer = layer;

  rep.paper["runs"] = runs;
  rep.paper["failed_runs"] = failed_runs;
  rep.paper["reconfig_ms"] = Median(reconfig);
  rep.paper["converge_ms"] = Median(converge);
  rep.paper["converge_censored"] = censored;
  rep.paper["sim_ms"] = rep.sim_s * 1e3;
  return rep;
}

void ChaosCorpus::Verify(std::vector<std::string>* errors) {
  std::size_t i = 0;
  for (const chaos::Scenario& s : scenarios_) {
    for (const chaos::TopologyCase& t : topologies_) {
      if (i >= first_pass_.size()) {
        return;
      }
      const Outcome& mine = first_pass_[i++];
      chaos::RunResult theirs = chaos::RunOne(config_, s, t, seed_);
      if (theirs.ok != mine.ok || theirs.log_hash != mine.log_hash ||
          theirs.metrics_hash != mine.metrics_hash) {
        errors->push_back(
            "chaos_corpus: " + Reproducer(s, t) + ": RunOne gives ok=" +
            std::to_string(theirs.ok) + " log " + Hex(theirs.log_hash) +
            " metrics " + Hex(theirs.metrics_hash) +
            ", the benchmark's run ok=" + std::to_string(mine.ok) + " log " +
            Hex(mine.log_hash) + " metrics " + Hex(mine.metrics_hash));
      }
    }
  }
}

}  // namespace

std::unique_ptr<Workload> MakeChaosCorpus(std::uint64_t seed) {
  return std::make_unique<ChaosCorpus>(seed);
}

}  // namespace perfbench
