// Post-mortem CLI: replays one run with the flight recorder armed and
// renders the reconstructed reconfiguration forensics — per-epoch blame
// chain, join wavefront, and convergence-phase breakdown.  Takes either
// a chaosrun reproducer line or a protocheck schedule id and replays it
// through that harness's own run path (chaos::RunOne, check::RunSchedule):
// the same boot, faults, workload, adversary and oracle battery, so the
// verdict, the fingerprints on the summary line and the timeline are the
// ones the campaign or sweep recorded for that run.
//
//   postmortem --scenario cable-cut-permanent --topo ring8 --seed 3
//   postmortem --scenario cable-cut-restore --topo small3 --seed 0
//              --workload 'rpc bytes 256 window 2'
//                                     (a campaign-level workload, as
//                                      chaosrun stamps it into reproducers)
//   postmortem --schedule small3:cut0+restore:o3:d12.1 --events
//   postmortem --scenario link-flap --topo line6 --seed 0 --events
//   postmortem --scenario cable-cut-permanent --topo ring8 --seed 3
//              --trace out.json
//                                     (Perfetto / chrome://tracing)
//   postmortem --scenario adv-corrupt-epoch --topo srclan16 --seed 1
//                                     (adversarial runs replay too: the
//                                      engine's moves land in the timeline
//                                      as flight events and the transcript
//                                      prints below the actions)
#include <cstdio>
#include <string>
#include <vector>

#include "src/adversary/spec.h"
#include "src/chaos/corpus.h"
#include "src/chaos/runner.h"
#include "src/check/explore.h"
#include "src/common/text.h"
#include "src/obs/postmortem.h"
#include "src/workload/spec.h"

using namespace autonet;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --scenario NAME --topo NAME --seed N [options]\n"
      "       %s --schedule ID [--events] [--trace FILE]\n"
      "  --scenario NAME   chaos scenario (chaos, SLO, and adversary\n"
      "                    built-in corpora are all searched)\n"
      "  --topo NAME       topology name (chaos registry)\n"
      "  --seed N          scenario seed (default 0)\n"
      "  --corpus FILE     scenario file instead of the built-in corpora\n"
      "  --workload SPEC   drive a campaign-level workload, as in chaosrun\n"
      "                    reproducer lines (scenario-level specs win)\n"
      "  --adversary SPEC  arm a campaign-level adversary, as in chaosrun\n"
      "                    reproducer lines (scenario-level specs win)\n"
      "  --schedule ID     protocheck schedule id instead of a scenario\n"
      "  --events          list every flight-recorder event per epoch\n"
      "  --trace FILE      write a Perfetto-compatible trace\n"
      "The summary line prints the run's log_hash and metrics_hash (a\n"
      "schedule has no metrics_hash), as the campaign and sweep reports\n"
      "record them.\n",
      argv0, argv0);
  return 2;
}

// Prints the run's violations, its summary line and the reconstructed
// timeline, and writes the Perfetto trace.  The exit status: 0 green, 1
// violated, 2 when the trace cannot be written.
int Report(const std::vector<chaos::Violation>& violations,
           const std::string& summary, const obs::PostMortem& pm,
           bool with_events, const std::string& trace_file) {
  for (const chaos::Violation& v : violations) {
    std::printf("[%s] %s\n", v.oracle.c_str(), v.detail.c_str());
  }
  std::printf("%s: %s\n\n", summary.c_str(),
              violations.empty() ? "all oracles green" : "VIOLATED");
  std::fputs(pm.RenderText(with_events).c_str(), stdout);
  if (!trace_file.empty()) {
    if (!WriteTextFile(trace_file, pm.ToChromeTraceJson())) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 2;
    }
    std::printf("trace: %s\n", trace_file.c_str());
  }
  return violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string topo_name;
  std::string corpus_file;
  std::string workload_text;
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
    } else if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      workload_text = v;
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
  obs::PostMortem pm;
  if (!schedule_id.empty()) {
    auto id = check::ScheduleId::FromString(schedule_id);
    if (!id.has_value()) {
      std::fprintf(stderr, "malformed schedule id '%s'\n",
                   schedule_id.c_str());
      return 2;
    }
    check::ScheduleResult result =
        check::RunSchedule(check::ExploreConfig(), *id, &pm);
    return Report(result.violations,
                  "schedule " + result.id + " log_hash " +
                      HexU64(result.log_hash),
                  pm, with_events, trace_file);
  }

  if (scenario_name.empty() || topo_name.empty()) {
    return Usage(argv[0]);
  }

  // --- chaosrun reproducer mode ---
  std::vector<chaos::Scenario> scenarios;
  if (corpus_file.empty()) {
    scenarios = chaos::DefaultCorpus();
    for (auto& extra : {chaos::SloCorpus(), chaos::AdversaryCorpus()}) {
      scenarios.insert(scenarios.end(), extra.begin(), extra.end());
    }
  } else {
    std::string text;
    std::string error;
    if (!ReadTextFile(corpus_file, &text)) {
      std::fprintf(stderr, "cannot read %s\n", corpus_file.c_str());
      return 2;
    }
    scenarios = chaos::ParseScenarios(text, &error);
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

  // Campaign-level workload and adversary, passed back in from a chaosrun
  // reproducer line; RunOne lets a scenario's own specs win.
  chaos::CampaignConfig config;
  if (!workload_text.empty() &&
      !workload::ParseSpecText(workload_text, &config.workload, &error)) {
    std::fprintf(stderr, "--workload: %s\n", error.c_str());
    return 2;
  }
  if (!adversary_text.empty() &&
      !adversary::ParseSpecText(adversary_text, &config.adversary, &error)) {
    std::fprintf(stderr, "--adversary: %s\n", error.c_str());
    return 2;
  }

  chaos::RunResult run = chaos::RunOne(config, *scenario, {topo_name, spec},
                                       seed, nullptr, &pm);
  for (const std::string& action : run.resolved_actions) {
    std::printf("action: %s\n", action.c_str());
  }
  for (const std::string& line : run.adversary_transcript) {
    std::printf("adversary: %s\n", line.c_str());
  }
  if (!run.workload.empty()) {
    std::printf("workload: %s: %llu ops, max outage %.1f ms\n",
                run.workload.c_str(),
                static_cast<unsigned long long>(run.slo_ops),
                run.slo_max_outage_ms);
  }
  return Report(run.violations,
                "run " + scenario_name + " --topo " + topo_name + " --seed " +
                    std::to_string(seed) + " log_hash " +
                    HexU64(run.log_hash) + " metrics_hash " +
                    HexU64(run.metrics_hash),
                pm, with_events, trace_file);
}
