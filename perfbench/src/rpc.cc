// rpc_cut_srclan: a closed-loop RPC fleet (one flow per host, 16 flows,
// 128-byte requests, 32-byte responses, one op outstanding per flow) on the
// paper's 30-switch, diameter-6 SRC network.  Each rep runs a steady phase,
// cuts one cable, waits for reconfiguration to a consistent state, then
// runs a recovery phase and drains.  Small packets under contention load
// the per-packet path (fabric scheduler, host controller and driver, the
// workload engine), and the cut makes autopilot and routing reconfigure
// under load: the paper's outage-under-load measurement.
#include <memory>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/workloads.h"
#include "src/chaos/oracles.h"
#include "src/workload/engine.h"

namespace perfbench {
namespace {

using autonet::Network;
using autonet::Tick;
using autonet::kMillisecond;
using autonet::kSecond;
namespace workload = autonet::workload;

constexpr const char* kRpcSpec = "rpc bytes 128 response 32 window 1";
constexpr Tick kSteady = 50 * kMillisecond;
constexpr Tick kRecovery = 50 * kMillisecond;
constexpr Tick kWindow = 5 * kMillisecond;
constexpr Tick kDrain = kSecond;
// Convergence deadline after the cut.  Under this load a simulated second
// costs several CPU seconds, so the chaos runner's 42 s deadline for this
// diameter would not fit a run; 3 s is past the slowest convergence seen
// over every other cable of the network (2.25 s).
constexpr Tick kConvergeDeadline = 3 * kSecond;

// True when the switches stay connected without `skip`.
bool ConnectedWithout(const autonet::TopoSpec& spec, int skip) {
  const int n = static_cast<int>(spec.switches.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int c = 0; c < static_cast<int>(spec.cables.size()); ++c) {
    const auto& cable = spec.cables[static_cast<std::size_t>(c)];
    if (c != skip && cable.sw_a != cable.sw_b) {
      adj[static_cast<std::size_t>(cable.sw_a)].push_back(cable.sw_b);
      adj[static_cast<std::size_t>(cable.sw_b)].push_back(cable.sw_a);
    }
  }
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::vector<int> stack = {0};
  seen[0] = true;
  int reached = 1;
  while (!stack.empty()) {
    int s = stack.back();
    stack.pop_back();
    for (int t : adj[static_cast<std::size_t>(s)]) {
      if (!seen[static_cast<std::size_t>(t)]) {
        seen[static_cast<std::size_t>(t)] = true;
        ++reached;
        stack.push_back(t);
      }
    }
  }
  return reached == n;
}

class RpcCutSrclan : public Workload {
 public:
  // The seed orders the cables whose loss keeps the network connected; rep
  // i cuts the i-th of them.
  explicit RpcCutSrclan(std::uint64_t seed) : spec_(autonet::MakeSrcLan(16)) {
    for (int c = 0; c < static_cast<int>(spec_.cables.size()); ++c) {
      if (ConnectedWithout(spec_, c)) {
        cables_.push_back(c);
      }
    }
    std::uint64_t state = seed;
    for (std::size_t i = cables_.size(); i > 1; --i) {
      std::swap(cables_[i - 1], cables_[SplitMix64(&state) % i]);
    }
    std::string error;
    if (!workload::ParseSpecText(kRpcSpec, &rpc_, &error)) {
      rpc_error_ =
          "bad workload spec '" + std::string(kRpcSpec) + "': " + error;
    }
  }

  Rep Run(int index, Tracer* tracer) override;

  double SetupOnce() override {
    Rep rep;
    std::string error;
    SetUp(spec_, nullptr, &rep, &error);
    return rep.setup_s;
  }

  std::map<std::string, std::string> PaperUnits() const override {
    return {{"cable", "index"},
            {"reconfig_ms", "ms"},
            {"converge_ms", "ms"},
            {"converge_censored", "count"},
            {"outage_ms", "ms"},
            {"rpc_p50_ms", "ms"},
            {"rpc_p999_ms", "ms"},
            {"rpc_recovery_p999_ms", "ms"},
            {"rpc_ops", "count"},
            {"lost_ops", "count"},
            {"sim_ms", "ms"}};
  }

 private:
  autonet::TopoSpec spec_;
  std::vector<int> cables_;
  workload::Spec rpc_;
  std::string rpc_error_;
};

Rep RpcCutSrclan::Run(int index, Tracer* tracer) {
  Rep rep;
  rep.input = index;
  Scope root(tracer, "rep", "bench");
  rep.root_span = root.id();
  if (!rpc_error_.empty() || cables_.empty()) {
    rep.errors.push_back(
        "rpc_cut_srclan: " +
        (cables_.empty() ? std::string("no cable can be cut") : rpc_error_));
    return rep;
  }
  const int cable =
      cables_[static_cast<std::size_t>(index) % cables_.size()];

  std::string error;
  std::unique_ptr<Network> net = SetUp(spec_, tracer, &rep, &error);
  if (!error.empty()) {
    rep.errors.push_back("rpc_cut_srclan: " + error);
    rep.attempted = rep.failed = 1;
    return rep;
  }

  const int diameter = autonet::chaos::HealthyDiameter(*net);
  auto engine = std::make_unique<workload::WorkloadEngine>(
      net.get(), rpc_, workload::SloBudgetConfig{}, diameter);
  LayerCounts before = LayerCounts::Read(*net);
  const Tick sim0 = net->sim().now();
  const double t0 = CpuSeconds();
  // The loaded phases (steady and recovery) are measured in windows, which
  // give the end-to-end rates: the cost of a loaded network.  How long the
  // cut leaves flows stalled depends on the cable, so windows of the fault
  // phase would measure the cable rather than the simulator.
  auto run_windows = [&](Tick length) {
    const std::size_t payload_per_op = rpc_.data_bytes + rpc_.response_bytes;
    for (Tick t = 0; t < length; t += kWindow) {
      const double cpu0 = CpuSeconds();
      const Tick window_sim = net->sim().now();
      const std::uint64_t ops0 = engine->ops_completed();
      {
        Scope call(tracer, "Network::Run", "core");
        net->Run(kWindow);
      }
      const double ops = static_cast<double>(engine->ops_completed() - ops0);
      AddWindow(&rep, CpuSeconds() - cpu0,
                static_cast<double>(net->sim().now() - window_sim) / 1e9, ops,
                ops * static_cast<double>(payload_per_op));
    }
  };
  {
    Scope phase(tracer, "steady", "bench");
    {
      Scope call(tracer, "WorkloadEngine::Start", "workload");
      engine->Start();
    }
    run_windows(kSteady);
  }
  Convergence convergence;
  {
    Scope phase(tracer, "fault", "bench");
    {
      Scope call(tracer, "WorkloadEngine::SetPhase", "workload");
      engine->SetPhase(workload::Phase::kFault);
    }
    const Tick cut_at = net->sim().now();
    const Tick deadline = cut_at + kConvergeDeadline;
    {
      Scope call(tracer, "Network::CutCable", "core");
      net->CutCable(cable);
    }
    {
      Scope call(tracer, "Network::WaitForConsistency", "core");
      net->WaitForConsistency(deadline);
    }
    Scope call(tracer, "Network::CheckConsistency", "core");
    convergence = JudgeConvergence(*net, cut_at, deadline);
  }
  const double reconfig_ms =
      static_cast<double>(net->LastReconfig().Duration()) / 1e6;
  {
    Scope phase(tracer, "recovery", "bench");
    {
      Scope call(tracer, "WorkloadEngine::SetPhase", "workload");
      engine->SetPhase(workload::Phase::kRecovery);
    }
    run_windows(kRecovery);
  }
  {
    Scope phase(tracer, "drain", "bench");
    {
      Scope call(tracer, "WorkloadEngine::Stop", "workload");
      engine->Stop();
    }
    const Tick give_up = net->sim().now() + kDrain;
    while (!engine->Drained() && net->sim().now() < give_up) {
      Scope call(tracer, "Network::Run", "core");
      net->Run(10 * kMillisecond);
    }
  }
  rep.timed_cpu_s = CpuSeconds() - t0;
  rep.sim_s = static_cast<double>(net->sim().now() - sim0) / 1e9;

  Scope phase(tracer, "finalize", "bench");
  workload::SloReport slo;
  {
    Scope call(tracer, "WorkloadEngine::Finalize", "workload");
    slo = engine->Finalize();
  }
  std::string consistency;
  {
    Scope call(tracer, "Network::CheckConsistency", "core");
    consistency = net->CheckConsistency();
  }
  std::map<std::string, double> counts;
  {
    Scope call(tracer, "LayerCounts::Read", "obs");
    counts = LayerCounts::Read(*net).Delta(before);
  }
  {
    Scope call(tracer, "fingerprint", "obs");
    double f0 = CpuSeconds();
    rep.fingerprint = Fnv1a(HashMergedLog(*net), slo.ToJson());
    rep.layer["obs.fingerprint_ms"] = (CpuSeconds() - f0) * 1e3;
  }
  if (tracer != nullptr) {
    Scope call(tracer, "routing", "routing");
    RoutingTimes routing = TimeRouting(*net);
    rep.layer["routing.spanning_tree_us"] = routing.spanning_tree_us;
    rep.layer["routing.forwarding_table_us"] = routing.forwarding_table_us;
  }

  // Operations: every completed or lost-forever RPC, and the cut itself,
  // which fails when the network did not converge before its deadline.  As
  // in the chaos runner, a cut that never converged is judged by that alone:
  // there is no "after recovery" to hold the network and the flows to.
  const std::string where = "rpc_cut_srclan cable " + std::to_string(cable);
  rep.attempted = slo.completed + slo.recovery_lost + 1;
  rep.failed = slo.recovery_lost + (convergence.converged ? 0 : 1);
  if (!convergence.converged) {
    rep.failures.push_back(where + ": no consistent configuration within " +
                           std::to_string(convergence.ms) +
                           " ms of the cut" +
                           (consistency.empty() ? "" : ": " + consistency));
  } else {
    if (slo.recovery_lost > 0) {
      rep.errors.push_back(where + ": " + std::to_string(slo.recovery_lost) +
                           " ops lost forever");
    }
    if (!consistency.empty()) {
      rep.errors.push_back(where + ": inconsistent after recovery: " +
                           consistency);
    }
    if (!engine->Drained()) {
      rep.errors.push_back(where + ": ops still outstanding after the drain");
    }
  }

  const double events = counts["sim.events"];
  for (const auto& [name, value] : counts) {
    rep.layer[name] = value;
  }
  const double steady_p50 = slo.steady_latency_ms.Percentile(50);
  const double steady_p999 = slo.steady_latency_ms.Percentile(99.9);
  const double recovery_p999 = slo.recovery_latency_ms.Percentile(99.9);
  rep.layer["sim.events_per_rpc_op"] =
      slo.completed > 0 ? events / static_cast<double>(slo.completed) : 0;
  rep.layer["workload.ops"] = static_cast<double>(slo.completed);
  rep.layer["workload.timeouts"] = static_cast<double>(slo.timeouts);
  rep.layer["workload.useful_ratio"] =
      slo.offered > 0 ? static_cast<double>(slo.completed) /
                            static_cast<double>(slo.offered)
                      : 0;
  rep.layer["workload.outage_ms"] = slo.max_outage_ms;
  rep.layer["workload.p50_ms"] = steady_p50;
  rep.layer["workload.p999_ms"] = steady_p999;
  rep.layer["workload.recovery_p999_ms"] = recovery_p999;
  rep.layer["autopilot.reconfig_ms"] = reconfig_ms;
  rep.layer["core.converge_ms"] = convergence.ms;
  rep.layer["core.converge_censored"] = convergence.converged ? 0 : 1;
  rep.layer["core.boot_ms"] = rep.boot_s * 1e3;

  rep.paper["cable"] = cable;
  rep.paper["reconfig_ms"] = reconfig_ms;
  rep.paper["converge_ms"] = convergence.ms;
  rep.paper["converge_censored"] = convergence.converged ? 0 : 1;
  rep.paper["outage_ms"] = slo.max_outage_ms;
  rep.paper["rpc_p50_ms"] = steady_p50;
  rep.paper["rpc_p999_ms"] = steady_p999;
  rep.paper["rpc_recovery_p999_ms"] = recovery_p999;
  rep.paper["rpc_ops"] = static_cast<double>(slo.completed);
  rep.paper["lost_ops"] = static_cast<double>(slo.recovery_lost);
  rep.paper["sim_ms"] = rep.sim_s * 1e3;
  Scope call(tracer, "Network::~Network", "core");
  engine.reset();  // before the network it is attached to
  net.reset();
  return rep;
}

}  // namespace

std::unique_ptr<Workload> MakeRpcCutSrclan(std::uint64_t seed) {
  return std::make_unique<RpcCutSrclan>(seed);
}

}  // namespace perfbench
