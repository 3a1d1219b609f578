#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/chaos/corpus.h"
#include "src/chaos/executor.h"
#include "src/chaos/oracles.h"
#include "src/chaos/runner.h"
#include "src/chaos/scenario.h"
#include "src/common/event_log.h"
#include "src/core/network.h"
#include "src/obs/json.h"
#include "src/obs/postmortem.h"
#include "src/sim/random.h"
#include "src/topo/spec.h"

namespace autonet {
namespace chaos {
namespace {

// --- scenario format --------------------------------------------------------

TEST(Scenario, ParsesEveryActionKind) {
  const std::string text = R"(
scenario everything
  at 100ms cut cable 2
  at 200ms restore cable 2
  at 300ms crash switch ?s
  at 400ms restart switch ?s
  at 500ms cut hostlink 1 primary
  at 600ms restore hostlink 1 alternate
  at 700ms corrupt cable random rate 0.01
  at 800ms reflect cable 0 side b
  flap cable ?f period 50ms from 100ms until 900ms
  at 1s burst cables 3 until 2s
  at 1s burst switches 2
)";
  std::string error;
  std::vector<Scenario> scenarios = ParseScenarios(text, &error);
  ASSERT_EQ(error, "");
  ASSERT_EQ(scenarios.size(), 1u);
  const Scenario& s = scenarios[0];
  EXPECT_EQ(s.name, "everything");
  ASSERT_EQ(s.actions.size(), 11u);
  EXPECT_EQ(s.actions[0].kind, Action::Kind::kCutCable);
  EXPECT_EQ(s.actions[0].target, 2);
  EXPECT_EQ(s.actions[2].pick, "s");
  EXPECT_EQ(s.actions[4].which, 0);
  EXPECT_EQ(s.actions[5].which, 1);
  EXPECT_DOUBLE_EQ(s.actions[6].rate, 0.01);
  EXPECT_EQ(s.actions[7].which, 1);
  EXPECT_EQ(s.actions[8].kind, Action::Kind::kFlapCable);
  EXPECT_EQ(s.actions[8].period, 50 * kMillisecond);
  EXPECT_EQ(s.actions[9].count, 3);
  EXPECT_EQ(s.actions[10].kind, Action::Kind::kBurstSwitches);
  EXPECT_EQ(s.ScriptEnd(), 2 * kSecond);
}

TEST(Scenario, TextRoundTrip) {
  std::vector<Scenario> corpus = DefaultCorpus();
  ASSERT_GE(corpus.size(), 10u);
  for (const Scenario& s : corpus) {
    std::string error;
    std::vector<Scenario> again = ParseScenarios(s.ToText(), &error);
    ASSERT_EQ(error, "") << s.name;
    ASSERT_EQ(again.size(), 1u) << s.name;
    EXPECT_EQ(again[0].name, s.name);
    ASSERT_EQ(again[0].actions.size(), s.actions.size()) << s.name;
    for (std::size_t i = 0; i < s.actions.size(); ++i) {
      EXPECT_EQ(again[0].actions[i].kind, s.actions[i].kind) << s.name;
      EXPECT_EQ(again[0].actions[i].at, s.actions[i].at) << s.name;
      EXPECT_EQ(again[0].actions[i].pick, s.actions[i].pick) << s.name;
    }
  }
}

TEST(Scenario, ParseErrorsNameTheLine) {
  std::string error;
  EXPECT_TRUE(ParseScenarios("scenario x\n  at 5 cut cable 0\n", &error)
                  .empty());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  EXPECT_TRUE(ParseScenarios("at 5ms cut cable 0\n", &error).empty());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;

  EXPECT_TRUE(
      ParseScenarios("scenario x\n  at 5ms melt cable 0\n", &error).empty());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // Numbers are read whole: no NaN, no infinity, no trailing garbage, no
  // time past the Tick range.
  for (const char* bad : {
           "at 5ms corrupt cable 0 rate nan",
           "at 5ms corrupt cable 0 rate inf",
           "at 5ms corrupt cable 0 rate 0.5abc",
           "at 5ms corrupt cable 0 rate 1.5",
           "at 5ms burst cables 3x until 1s",
           "at 5ms burst switches 2x",
           "at 5ms burst switches 0",
           "at 5ms cut cable 3x",
           "at 5ms cut cable +3",
           "at 10000000000s cut cable 0",
           "at 5ms burst cables 2 until 9223372036854775808ns",
       }) {
    EXPECT_TRUE(
        ParseScenarios(std::string("scenario x\n  ") + bad + "\n", &error)
            .empty())
        << bad;
    EXPECT_NE(error.find("line 2"), std::string::npos) << bad << ": " << error;
  }

  // One workload and one adversary line per scenario: a second one would
  // silently replace the first.
  EXPECT_TRUE(ParseScenarios("scenario x\n"
                             "  workload rpc\n"
                             "  at 5ms cut cable 0\n"
                             "  workload streams\n",
                             &error)
                  .empty());
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  EXPECT_NE(error.find("second 'workload'"), std::string::npos) << error;
  EXPECT_TRUE(ParseScenarios("scenario x\n"
                             "  adversary storm\n"
                             "  adversary root-chase\n",
                             &error)
                  .empty());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("second 'adversary'"), std::string::npos) << error;
  // Each scenario gets its own.
  EXPECT_EQ(ParseScenarios("scenario x\n  workload rpc\n"
                           "scenario y\n  workload rpc\n",
                           &error)
                .size(),
            2u)
      << error;
}

TEST(Scenario, RateAndTickPrintInShortestExactForm) {
  std::string error;
  std::vector<Scenario> s = ParseScenarios(
      "scenario x\n"
      "  at 9223372036854775807ns corrupt cable 0 rate 0.123456789\n"
      "  at 1.5s corrupt cable 1 rate 0.005\n",
      &error);
  ASSERT_EQ(error, "");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].actions[0].at, std::numeric_limits<Tick>::max());
  EXPECT_EQ(s[0].ToText(),
            "scenario x\n"
            "  at 9223372036854775807ns corrupt cable 0 rate 0.123456789\n"
            "  at 1500ms corrupt cable 1 rate 0.005\n");
}

// --- deterministic resolution ----------------------------------------------

TEST(Executor, ResolutionIsAPureFunctionOfScenarioTopologySeed) {
  Scenario s;
  s.name = "pick-test";
  s.CutCable(100 * kMillisecond, kRandomTarget, "a")
      .CrashSwitch(200 * kMillisecond)
      .RestoreCable(1 * kSecond, kRandomTarget, "a");

  auto resolve = [&](std::uint64_t seed) {
    Network net(MakeTorus(3, 3, 1));
    ScenarioExecutor exec(&net, s, seed);
    return exec.resolved();
  };
  EXPECT_EQ(resolve(7), resolve(7));

  // Named picks are stable: the cut and the restore hit the same cable.
  std::vector<std::string> r = resolve(7);
  ASSERT_EQ(r.size(), 3u);
  std::string cut_victim = r[0].substr(r[0].find("cable"));
  std::string restore_victim = r[2].substr(r[2].find("cable"));
  EXPECT_EQ(cut_victim, restore_victim);

  // Sweeping seeds sweeps victims (18 cables; 8 seeds all agreeing would
  // mean resolution ignores the seed).
  bool any_difference = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    if (resolve(seed) != resolve(0)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

// --- single runs ------------------------------------------------------------

CampaignConfig SmallConfig() {
  CampaignConfig config;
  std::string error;
  config.topologies.push_back({"line6", TopologyByName("line6", &error)});
  return config;
}

TEST(Runner, SameSeedReplaysIdentically) {
  Scenario s;
  s.name = "cut-restore";
  s.CutCable(100 * kMillisecond, kRandomTarget, "a")
      .RestoreCable(600 * kMillisecond, kRandomTarget, "a");

  CampaignConfig config = SmallConfig();
  RunResult first = RunOne(config, s, config.topologies[0], 3);
  RunResult second = RunOne(config, s, config.topologies[0], 3);
  EXPECT_TRUE(first.ok) << (first.violations.empty()
                                ? ""
                                : first.violations[0].detail);
  EXPECT_EQ(first.log_hash, second.log_hash);
  EXPECT_EQ(first.metrics_hash, second.metrics_hash);
  EXPECT_EQ(first.resolved_actions, second.resolved_actions);
}

TEST(Runner, ExecutionStreamIsDeterministic) {
  // Stronger than hash equality: the full merged logs and metric snapshots
  // of two independent replays are byte-identical.
  Scenario s;
  s.name = "crash";
  s.CrashSwitch(100 * kMillisecond, kRandomTarget, "s")
      .RestartSwitch(700 * kMillisecond, kRandomTarget, "s");

  auto run = [&](std::string* log, std::string* metrics) {
    Network net(MakeRing(4, 1));
    net.Boot();
    ASSERT_TRUE(net.WaitForConsistency(60 * kSecond));
    ScenarioExecutor exec(&net, s, 11);
    exec.Schedule(net.sim().now());
    net.Run(5 * kSecond);
    *log = EventLog::Format(net.MergedLog());
    *metrics = net.DumpMetricsJson();
  };
  std::string log_a, metrics_a, log_b, metrics_b;
  run(&log_a, &metrics_a);
  run(&log_b, &metrics_b);
  EXPECT_EQ(log_a, log_b);
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_NE(log_a.find("power off"), std::string::npos);
}

TEST(Runner, DifferentSeedsAreDistinguishedInTheReport) {
  Scenario s;
  s.name = "cut";
  s.CutCable(100 * kMillisecond).RestoreCable(600 * kMillisecond);
  // (anonymous random pick: cut and restore resolve independently, so use
  // the torus where every cable is redundant)
  CampaignConfig config;
  std::string error;
  config.topologies.push_back({"torus3x3", TopologyByName("torus3x3", &error)});
  config.scenarios.push_back(s);
  config.seeds = {0, 1, 2, 3, 4};
  config.jobs = 2;

  CampaignReport report = RunCampaign(config);
  ASSERT_EQ(report.runs.size(), 5u);
  EXPECT_TRUE(report.AllPassed());
  bool hashes_differ = false;
  for (const RunResult& r : report.runs) {
    if (r.log_hash != report.runs[0].log_hash) {
      hashes_differ = true;
    }
    EXPECT_EQ(r.ok, true);
  }
  EXPECT_TRUE(hashes_differ);
}

// --- campaigns --------------------------------------------------------------

TEST(Runner, CampaignSweepsTheMatrixAndReportsJson) {
  CampaignConfig config = SmallConfig();
  Scenario cut;
  cut.name = "cut";
  cut.CutCable(100 * kMillisecond, kRandomTarget, "a")
      .RestoreCable(600 * kMillisecond, kRandomTarget, "a");
  Scenario crash;
  crash.name = "crash";
  crash.CrashSwitch(100 * kMillisecond, kRandomTarget, "s")
      .RestartSwitch(900 * kMillisecond, kRandomTarget, "s");
  config.scenarios = {cut, crash};
  config.seeds = {1, 2};
  config.jobs = 2;

  CampaignReport report = RunCampaign(config);
  ASSERT_EQ(report.runs.size(), 4u);
  EXPECT_EQ(report.passed, 4);
  EXPECT_EQ(report.failed, 0);
  EXPECT_TRUE(report.AllPassed());
  EXPECT_TRUE(report.ReproducerLines().empty());
  EXPECT_EQ(report.jobs, 2);
  EXPECT_EQ(report.run_wall_ms.count(), 4u);
  EXPECT_GE(report.reconfig_ms.count(), 1u);
  EXPECT_GT(report.metrics.size(), 0u);

  std::optional<JsonValue> json = ParseJson(report.ToJson());
  ASSERT_TRUE(json.has_value());
  const JsonValue* campaign = json->Find("campaign");
  ASSERT_NE(campaign, nullptr);
  EXPECT_EQ(campaign->Find("runs")->number, 4);
  EXPECT_EQ(campaign->Find("passed")->number, 4);
  ASSERT_NE(json->Find("runs"), nullptr);
  EXPECT_EQ(json->Find("runs")->array.size(), 4u);
  const JsonValue& run0 = json->Find("runs")->array[0];
  EXPECT_TRUE(run0.Find("log_hash")->is_string());
  EXPECT_FALSE(run0.Find("actions")->array.empty());
  ASSERT_NE(json->Find("metrics"), nullptr);
  EXPECT_TRUE(json->Find("metrics")->Find("counters") != nullptr);
}

// --- violations are caught and reproducible ---------------------------------

class AlwaysFailOracle : public Oracle {
 public:
  std::string name() const override { return "always-fail"; }
  std::string Check(OracleContext&) override {
    return "deliberately broken fixture";
  }
};

std::vector<std::unique_ptr<Oracle>> BrokenBattery() {
  std::vector<std::unique_ptr<Oracle>> oracles;
  oracles.push_back(MakeConvergenceOracle());
  oracles.push_back(std::make_unique<AlwaysFailOracle>());
  return oracles;
}

TEST(Runner, BrokenOracleProducesViolationWithWorkingReproducer) {
  CampaignConfig config = SmallConfig();
  Scenario s;
  s.name = "quiet";
  s.CutCable(100 * kMillisecond, kRandomTarget, "a")
      .RestoreCable(400 * kMillisecond, kRandomTarget, "a");
  config.scenarios = {s};
  config.seeds = {5};
  config.jobs = 1;
  config.oracles = BrokenBattery;

  CampaignReport report = RunCampaign(config);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_FALSE(report.AllPassed());
  EXPECT_EQ(report.failed, 1);
  ASSERT_EQ(report.runs[0].violations.size(), 1u);
  const Violation& v = report.runs[0].violations[0];
  EXPECT_EQ(v.oracle, "always-fail");
  EXPECT_EQ(v.detail, "deliberately broken fixture");
  EXPECT_EQ(v.reproducer, "chaosrun --scenario quiet --topo line6 --seed 5");

  // The reproducer line works: parse it back and replay exactly that run.
  std::istringstream tokens(v.reproducer);
  std::string stem, flag, scenario_name, topo_name, seed_text;
  tokens >> stem >> flag >> scenario_name;
  tokens >> flag >> topo_name;
  tokens >> flag >> seed_text;
  ASSERT_EQ(scenario_name, "quiet");
  std::string error;
  TopologyCase topo{topo_name, TopologyByName(topo_name, &error)};
  ASSERT_EQ(error, "");
  obs::PostMortem pm;
  RunResult replay = RunOne(config, s, topo, std::stoull(seed_text),
                            nullptr, &pm);
  ASSERT_EQ(replay.violations.size(), 1u);
  EXPECT_EQ(replay.violations[0].reproducer, v.reproducer);
  EXPECT_EQ(replay.log_hash, report.runs[0].log_hash);
  EXPECT_EQ(replay.resolved_actions, report.runs[0].resolved_actions);

  // The violation explains itself, and the replay's post-mortem is the
  // record it was explained from.
  EXPECT_NE(v.blame, "");
  EXPECT_NE(v.timeline.find("=== epoch"), std::string::npos) << v.timeline;
  EXPECT_EQ(replay.violations[0].timeline, v.timeline);
  EXPECT_EQ(pm.RenderText(), v.timeline);
  EXPECT_EQ(pm.epochs().back().BlameChain(), v.blame);
}

// --- topology registry -------------------------------------------------------

TEST(Runner, TopologyRegistryKnowsTheMatrix) {
  std::vector<std::string> names = AllTopologyNames();
  for (const char* explorer_shape : {"pair2", "line3", "ring4"}) {
    names.push_back(explorer_shape);
  }
  for (const std::string& name : names) {
    std::string error;
    TopoSpec spec = TopologyByName(name, &error);
    EXPECT_EQ(error, "") << name;
    EXPECT_EQ(spec.Validate(), "") << name;
    EXPECT_FALSE(spec.switches.empty()) << name;
  }
  std::string error;
  TopologyByName("no-such-topology", &error);
  EXPECT_NE(error, "");
}

// --- text round trip: every grammar, seeded random values ------------------

// Draws random values of every text grammar: each field a kind or strategy
// uses is random, every other field keeps its default (ToText omits it).
class TextGen {
 public:
  explicit TextGen(std::uint64_t seed) : rng_(seed) {}

  // A time on a ns/us/ms/s boundary: small, or anywhere up to the Tick range.
  Tick Time(Tick min = 0) {
    static constexpr Tick kUnits[] = {1, kMicrosecond, kMillisecond, kSecond};
    Tick unit = kUnits[Int(0, 3)];
    Tick max = std::numeric_limits<Tick>::max() / unit;
    Tick t = unit * (Bit() ? Int(0, 2000) : Int(0, max));
    if (Int(0, 20) == 0) {
      t = std::numeric_limits<Tick>::max();
    }
    return std::max(t, min);
  }

  adversary::Spec Adversary() {
    adversary::Spec spec;
    spec.strategy = static_cast<adversary::Strategy>(
        Int(0, static_cast<int>(adversary::Strategy::kCorruptEpoch)));
    if (!spec.enabled()) {
      return spec;
    }
    spec.moves = static_cast<int>(Int(1, 1000));
    spec.duration = Time(1);
    spec.period = Bit() ? 0 : Time(1);
    if (spec.strategy == adversary::Strategy::kPhaseSnipe) {
      spec.phase = static_cast<obs::ReconfigPhase>(
          Int(0, obs::kReconfigPhaseCount - 1));
    } else if (spec.strategy == adversary::Strategy::kStorm) {
      spec.burst = static_cast<int>(Int(1, 64));
    } else if (spec.strategy == adversary::Strategy::kCorruptEpoch) {
      spec.amount = Bit() ? static_cast<std::uint64_t>(Int(0, 5))
                          : rng_.NextU64();
    }
    return spec;
  }

  workload::Spec Workload() {
    workload::Spec spec;
    spec.kind = static_cast<workload::Kind>(
        Int(0, static_cast<int>(workload::Kind::kStreams)));
    if (!spec.enabled()) {
      return spec;
    }
    spec.data_bytes = static_cast<std::size_t>(Int(1, 1 << 20));
    switch (spec.kind) {
      case workload::Kind::kRpc:
        spec.response_bytes = static_cast<std::size_t>(Int(1, 1 << 20));
        spec.window = static_cast<int>(Int(1, 64));
        spec.timeout = Time(1);
        break;
      case workload::Kind::kAllreduce:
        spec.timeout = Time(1);
        break;
      case workload::Kind::kStreams:
        spec.period = Time(1);
        spec.deadline = Time(1);
        break;
      case workload::Kind::kNone:
        break;
    }
    return spec;
  }

  Scenario MakeScenario() {
    Scenario s;
    s.name = "gen-" + std::to_string(Int(0, 999));
    s.workload = Workload();
    s.adversary = Adversary();
    for (int i = Int(0, 12); i > 0; --i) {
      s.actions.push_back(MakeAction());
    }
    return s;
  }

  Action MakeAction() {
    Action a;
    a.kind = static_cast<Action::Kind>(
        Int(0, static_cast<int>(Action::Kind::kBurstSwitches)));
    a.at = Time();
    switch (a.kind) {
      case Action::Kind::kBurstCables:
        a.count = static_cast<int>(Int(1, 100));
        a.until = Time();
        return a;
      case Action::Kind::kBurstSwitches:
        a.count = static_cast<int>(Int(1, 100));
        a.until = Bit() ? -1 : Time(a.at);  // -1: never restart
        return a;
      case Action::Kind::kCutHostLink:
      case Action::Kind::kRestoreHostLink:
      case Action::Kind::kReflectCable:
        a.which = static_cast<int>(Int(0, 1));
        break;
      case Action::Kind::kCorruptCable:
        a.rate = Rate();
        break;
      case Action::Kind::kFlapCable:
        a.period = Time(1);
        a.until = Time();
        break;
      default:
        break;
    }
    switch (Int(0, 2)) {
      case 0:
        break;  // random
      case 1:
        a.pick = "v" + std::to_string(Int(0, 9));
        break;
      default:
        a.target = static_cast<int>(Int(0, std::numeric_limits<int>::max()));
        break;
    }
    return a;
  }

  double Rate() {
    static constexpr double kEdges[] = {0.0, 1.0, 0.005, 1e-9, 0.1};
    return Bit() ? kEdges[Int(0, 4)] : rng_.UniformDouble();
  }

  // A token that is never a comment, so appending it must break any line.
  std::string Stray() {
    static const char* kStray[] = {"x", "0", "1ms", "until", "rate", "moves",
                                   "?a", "random", "0.5"};
    return kStray[Int(0, 8)];
  }

 private:
  std::int64_t Int(std::int64_t lo, std::int64_t hi) {
    return rng_.UniformInt(lo, hi);
  }
  bool Bit() { return Int(0, 1) == 1; }

  Rng rng_;
};

constexpr int kRoundTripCases = 400;

TEST(TextRoundTrip, AdversarySpecs) {
  TextGen gen(11);
  std::set<adversary::Strategy> seen;
  for (int i = 0; i < kRoundTripCases; ++i) {
    adversary::Spec spec = gen.Adversary();
    seen.insert(spec.strategy);
    std::string text = spec.ToText();
    adversary::Spec again;
    std::string error;
    ASSERT_TRUE(adversary::ParseSpecText(text, &again, &error))
        << text << ": " << error;
    EXPECT_EQ(again, spec) << text;
    EXPECT_EQ(again.ToText(), text);
    std::string stray = text + " " + gen.Stray();
    EXPECT_FALSE(adversary::ParseSpecText(stray, &again, &error)) << stray;
  }
  EXPECT_EQ(seen.size(), 9u);
}

TEST(TextRoundTrip, WorkloadSpecs) {
  TextGen gen(12);
  std::set<workload::Kind> seen;
  for (int i = 0; i < kRoundTripCases; ++i) {
    workload::Spec spec = gen.Workload();
    seen.insert(spec.kind);
    std::string text = spec.ToText();
    workload::Spec again;
    std::string error;
    ASSERT_TRUE(workload::ParseSpecText(text, &again, &error))
        << text << ": " << error;
    EXPECT_EQ(again, spec) << text;
    EXPECT_EQ(again.ToText(), text);
    std::string stray = text + " " + gen.Stray();
    EXPECT_FALSE(workload::ParseSpecText(stray, &again, &error)) << stray;
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(TextRoundTrip, Scenarios) {
  TextGen gen(13);
  std::set<Action::Kind> seen;
  for (int i = 0; i < kRoundTripCases; ++i) {
    Scenario s = gen.MakeScenario();
    for (const Action& a : s.actions) {
      seen.insert(a.kind);
    }
    std::string text = s.ToText();
    std::string error;
    std::vector<Scenario> again = ParseScenarios(text, &error);
    ASSERT_EQ(again.size(), 1u) << text << error;
    EXPECT_EQ(again[0], s) << text;
    EXPECT_EQ(again[0].ToText(), text);

    // One stray token on any line makes the whole text fail, at that line.
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      lines.push_back(line);
    }
    for (std::size_t n = 0; n < lines.size(); ++n) {
      std::string broken;
      for (std::size_t k = 0; k < lines.size(); ++k) {
        broken += lines[k] + (k == n ? " " + gen.Stray() : "") + "\n";
      }
      EXPECT_TRUE(ParseScenarios(broken, &error).empty()) << broken;
      EXPECT_NE(error.find("line " + std::to_string(n + 1)),
                std::string::npos)
          << broken << error;
    }
  }
  EXPECT_EQ(seen.size(), 11u);
}

TEST(Oracles, HealthyDiameterScalesDeadlines) {
  Network line(MakeLine(6, 1));
  EXPECT_EQ(HealthyDiameter(line), 5);
  Network ring(MakeRing(8, 1));
  EXPECT_EQ(HealthyDiameter(ring), 4);
}

// --- post-mortem export -----------------------------------------------------

// The Perfetto export and the post-mortem breakdown are two views of one
// flight record.  On every run of the default corpus on small3: for every
// epoch, the `reconfig.phase` spans are exactly the PhaseBreakdown windows,
// and every phase span on a `<switch>.reconfig` track nests inside an epoch
// span on that track.
TEST(PostMortemExport, PerfettoAgreesWithPhaseBreakdownOnDefaultCorpus) {
  std::string error;
  const TopoSpec topo = TopologyByName("small3", &error);
  ASSERT_TRUE(error.empty()) << error;
  const CampaignConfig config;
  const std::vector<Scenario> corpus = DefaultCorpus();
  EXPECT_EQ(corpus.size(), 13u);
  std::size_t epochs = 0;
  std::size_t switch_phase_spans = 0;
  for (const Scenario& s : corpus) {
    SCOPED_TRACE(s.name);
    Network net(topo, config.network);
    net.sim().flight().Arm();
    net.Boot();
    ASSERT_TRUE(
        net.WaitForConsistency(ConvergenceDeadline(net, config), config.quiet));
    ScenarioExecutor exec(&net, s, 1);
    exec.Schedule(net.sim().now());
    if (exec.script_end() > net.sim().now()) {
      net.Run(exec.script_end() - net.sim().now());
    }
    net.WaitForConsistency(ConvergenceDeadline(net, config), config.quiet);

    obs::PostMortem pm = obs::PostMortem::Build(net.sim().flight());
    std::optional<JsonValue> doc = ParseJson(pm.ToChromeTraceJson());
    ASSERT_TRUE(doc.has_value());
    const std::vector<JsonValue>& events = doc->Find("traceEvents")->array;

    // (name, begin ns, end ns) per span, by track.
    using Span = std::tuple<std::string, long long, long long>;
    std::map<int, std::string> track_of;
    for (const JsonValue& ev : events) {
      if (ev.Find("ph")->str == "M") {
        track_of[static_cast<int>(ev.Find("tid")->number)] =
            ev.Find("args")->Find("name")->str;
      }
    }
    std::map<std::string, std::multiset<Span>> spans;
    for (const JsonValue& ev : events) {
      if (ev.Find("ph")->str != "X") {
        continue;
      }
      long long begin = std::llround(ev.Find("ts")->number * 1000);
      long long dur = std::llround(ev.Find("dur")->number * 1000);
      spans[track_of[static_cast<int>(ev.Find("tid")->number)]].insert(
          {ev.Find("name")->str, begin, begin + dur});
    }

    std::multiset<Span> expected;
    for (const obs::EpochTimeline& tl : pm.epochs()) {
      ++epochs;
      for (std::size_t i = 0; i < obs::kReconfigPhaseCount; ++i) {
        const auto phase = static_cast<obs::ReconfigPhase>(i);
        const obs::PhaseWindow& w = tl.phases[phase];
        if (w.recorded()) {
          expected.insert({obs::PhaseName(phase), w.begin, w.end});
        }
      }
    }
    EXPECT_EQ(spans["reconfig.phase"], expected);

    for (const auto& [track, track_spans] : spans) {
      if (track.size() <= 9 ||
          track.compare(track.size() - 9, 9, ".reconfig") != 0) {
        continue;
      }
      for (const auto& [name, begin, end] : track_spans) {
        if (name.rfind("epoch ", 0) == 0) {
          continue;
        }
        ++switch_phase_spans;
        bool nested = std::any_of(
            track_spans.begin(), track_spans.end(), [&](const Span& e) {
              return std::get<0>(e).rfind("epoch ", 0) == 0 &&
                     std::get<1>(e) <= begin && end <= std::get<2>(e);
            });
        EXPECT_TRUE(nested) << track << " " << name << " [" << begin << ", "
                            << end << "] is in no epoch span";
      }
    }
  }
  EXPECT_GT(epochs, corpus.size());
  EXPECT_GT(switch_phase_spans, epochs);
}

}  // namespace
}  // namespace chaos
}  // namespace autonet
