// Post-mortem CLI: replays one run with the flight recorder armed and
// renders the reconstructed reconfiguration forensics — per-epoch blame
// chain, join wavefront, and convergence-phase breakdown.  Takes either
// a chaosrun reproducer line's coordinates or a protocheck schedule id,
// so any failure either harness reports can be turned into a timeline:
//
//   postmortem --scenario cable-cut --topo ring8 --seed 3
//   postmortem --schedule small3:cut0+restore:o3:d12.1
//   postmortem --scenario link-flap --topo line6 --seed 0 --events
//   postmortem --scenario cable-cut --topo ring8 --seed 3 --trace out.json
//                                     (Perfetto / chrome://tracing)
//   postmortem --scenario adv-corrupt-epoch --topo srclan16 --seed 1
//                                     (adversarial runs replay too: the
//                                      engine's moves land in the timeline
//                                      as flight events and the transcript
//                                      prints below the actions)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/adversary/spec.h"
#include "src/chaos/corpus.h"
#include "src/chaos/executor.h"
#include "src/chaos/oracles.h"
#include "src/chaos/runner.h"
#include "src/check/explore.h"
#include "src/common/text.h"
#include "src/core/network.h"
#include "src/obs/postmortem.h"

using namespace autonet;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --scenario NAME --topo NAME --seed N [options]\n"
      "       %s --schedule ID [--events]\n"
      "  --scenario NAME   chaos scenario (chaos, SLO, and adversary\n"
      "                    built-in corpora are all searched)\n"
      "  --topo NAME       topology name (chaos registry)\n"
      "  --seed N          scenario seed (default 0)\n"
      "  --corpus FILE     scenario file instead of the built-in corpora\n"
      "  --adversary SPEC  arm a campaign-level adversary, as in chaosrun\n"
      "                    reproducer lines (scenario-level specs win)\n"
      "  --schedule ID     protocheck schedule id instead of a scenario\n"
      "  --events          list every flight-recorder event per epoch\n"
      "  --trace FILE      write a Perfetto-compatible trace (scenario mode)\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string topo_name;
  std::string corpus_file;
  std::string adversary_text;
  std::string schedule_id;
  std::string trace_file;
  std::uint64_t seed = 0;
  bool with_events = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      scenario_name = v;
    } else if (arg == "--topo") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      topo_name = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr || v[0] == '-' || !ParseInt(v, &seed)) {
        std::fprintf(stderr, "--seed needs a non-negative integer, got '%s'\n",
                     v != nullptr ? v : "");
        return Usage(argv[0]);
      }
    } else if (arg == "--corpus") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      corpus_file = v;
    } else if (arg == "--adversary") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      adversary_text = v;
    } else if (arg == "--schedule") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      schedule_id = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      trace_file = v;
    } else if (arg == "--events") {
      with_events = true;
    } else {
      return Usage(argv[0]);
    }
  }

  // --- protocheck schedule mode ---
  if (!schedule_id.empty()) {
    auto id = check::ScheduleId::FromString(schedule_id);
    if (!id.has_value()) {
      std::fprintf(stderr, "malformed schedule id '%s'\n",
                   schedule_id.c_str());
      return 2;
    }
    check::ExploreConfig config;
    config.capture_postmortem = true;
    check::ScheduleResult result = check::RunSchedule(config, *id);
    for (const chaos::Violation& v : result.violations) {
      std::printf("[%s] %s\n", v.oracle.c_str(), v.detail.c_str());
    }
    std::printf("schedule %s: %s\n\n", result.id.c_str(),
                result.ok ? "all oracles green" : "VIOLATED");
    std::fputs(result.postmortem.c_str(), stdout);
    return result.ok ? 0 : 1;
  }

  if (scenario_name.empty() || topo_name.empty()) {
    return Usage(argv[0]);
  }

  // --- chaosrun reproducer mode ---
  // Replays the run exactly as chaos::RunOne does (same boot, script, and
  // oracle sequence), so the reconstructed timeline matches the one a
  // failed campaign attached to its violations.
  std::vector<chaos::Scenario> scenarios;
  if (corpus_file.empty()) {
    scenarios = chaos::DefaultCorpus();
    for (auto& extra : {chaos::SloCorpus(), chaos::AdversaryCorpus()}) {
      scenarios.insert(scenarios.end(), extra.begin(), extra.end());
    }
  } else {
    std::ifstream in(corpus_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", corpus_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    scenarios = chaos::ParseScenarios(text.str(), &error);
    if (scenarios.empty()) {
      std::fprintf(stderr, "%s: %s\n", corpus_file.c_str(), error.c_str());
      return 2;
    }
  }
  const chaos::Scenario* scenario = nullptr;
  for (const chaos::Scenario& s : scenarios) {
    if (s.name == scenario_name) {
      scenario = &s;
      break;
    }
  }
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s'\n", scenario_name.c_str());
    return 2;
  }
  std::string error;
  TopoSpec spec = chaos::TopologyByName(topo_name, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  chaos::CampaignConfig config;
  Network net(spec, config.network);
  net.sim().flight().Arm();
  net.Boot();
  Tick boot_deadline = config.convergence_base +
                       config.convergence_per_hop * chaos::HealthyDiameter(net);
  if (!net.WaitForConsistency(boot_deadline, config.quiet)) {
    std::fprintf(stderr, "bootstrap never converged; timeline follows\n");
    obs::PostMortem pm = obs::PostMortem::Build(net.sim().flight());
    std::fputs(pm.RenderText(with_events).c_str(), stdout);
    return 1;
  }
  net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond);

  // Arm the adversary exactly as chaos::RunOne does: the scenario's own
  // spec wins, else a campaign-level one passed back in via --adversary
  // (chaosrun stamps it into reproducer lines).
  adversary::Spec cli_adv;
  if (!adversary_text.empty() &&
      !adversary::ParseSpecText(adversary_text, &cli_adv, &error)) {
    std::fprintf(stderr, "--adversary: %s\n", error.c_str());
    return 2;
  }
  const adversary::Spec& adv =
      scenario->adversary.enabled() ? scenario->adversary : cli_adv;

  chaos::ScenarioExecutor executor(&net, *scenario, seed);
  Tick script_start = net.sim().now();
  executor.Schedule(script_start);
  std::unique_ptr<adversary::Engine> adv_engine;
  if (adv.enabled()) {
    adv_engine = std::make_unique<adversary::Engine>(&net, adv, seed);
    adv_engine->Arm(script_start);
  }
  Tick run_until = executor.script_end();
  if (adv_engine != nullptr) {
    run_until = std::max(run_until, adv_engine->end());
  }
  if (run_until > net.sim().now()) {
    net.Run(run_until - net.sim().now());
  }
  for (const std::string& action : executor.resolved()) {
    std::printf("action: %s\n", action.c_str());
  }
  if (adv_engine != nullptr) {
    for (const std::string& line : adv_engine->transcript()) {
      std::printf("adversary: %s\n", line.c_str());
    }
  }

  chaos::OracleContext ctx;
  ctx.net = &net;
  ctx.quiet = config.quiet;
  ctx.deadline = net.sim().now() + config.convergence_base +
                 config.convergence_per_hop * chaos::HealthyDiameter(net);
  bool violated = false;
  for (const auto& oracle : chaos::StandardOracles()) {
    std::string detail = oracle->Check(ctx);
    if (!detail.empty()) {
      std::printf("[%s] %s\n", oracle->name().c_str(), detail.c_str());
      violated = true;
    }
  }
  std::printf("run %s --topo %s --seed %llu: %s\n\n", scenario_name.c_str(),
              topo_name.c_str(), static_cast<unsigned long long>(seed),
              violated ? "VIOLATED" : "all oracles green");

  obs::PostMortem pm = obs::PostMortem::Build(net.sim().flight());
  std::fputs(pm.RenderText(with_events).c_str(), stdout);
  if (!trace_file.empty()) {
    if (!WriteTextFile(trace_file, pm.ToChromeTraceJson())) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 2;
    }
    std::printf("trace: %s\n", trace_file.c_str());
  }
  return violated ? 1 : 0;
}
