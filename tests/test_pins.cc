// The committed campaign reports are the repo's definition of "same
// behaviour": every run's verdict and fingerprints.  These tests rerun two of
// those campaigns and compare each run's `ok`, `log_hash` and `metrics_hash`
// with the committed row for its (scenario, topology, seed), so a change
// that moves a fingerprint fails here instead of going unnoticed until a
// report is re-recorded.  The adversary campaign (adversary-report.json)
// takes ~30 s and is compared in CI's adversary-smoke job instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/chaos/corpus.h"
#include "src/chaos/runner.h"
#include "src/common/text.h"
#include "src/obs/json.h"

namespace autonet {
namespace chaos {
namespace {

using RunKey = std::tuple<std::string, std::string, std::uint64_t>;

// The committed report's runs by (scenario, topology, seed).
std::map<RunKey, JsonValue> CommittedRuns(const std::string& file) {
  std::ifstream in(std::string(AUTONET_REPO_DIR) + "/" + file);
  std::ostringstream text;
  text << in.rdbuf();
  std::optional<JsonValue> doc = ParseJson(text.str());
  std::map<RunKey, JsonValue> runs;
  if (!doc.has_value() || doc->Find("runs") == nullptr) {
    ADD_FAILURE() << "cannot read " << file;
    return runs;
  }
  for (const JsonValue& run : doc->Find("runs")->array) {
    runs[{run.Find("scenario")->str, run.Find("topology")->str,
          static_cast<std::uint64_t>(run.Find("seed")->number)}] = run;
  }
  return runs;
}

CampaignConfig Campaign(std::vector<Scenario> scenarios,
                        const std::vector<std::string>& topologies,
                        int seeds) {
  CampaignConfig config;
  config.scenarios = std::move(scenarios);
  for (const std::string& name : topologies) {
    std::string error;
    config.topologies.push_back({name, TopologyByName(name, &error)});
    EXPECT_TRUE(error.empty()) << error;
  }
  for (int s = 0; s < seeds; ++s) {
    config.seeds.push_back(static_cast<std::uint64_t>(s));
  }
  config.jobs = 4;
  return config;
}

void ExpectMatchesCommitted(const CampaignConfig& config,
                            const std::string& file) {
  const std::map<RunKey, JsonValue> committed = CommittedRuns(file);
  const CampaignReport report = RunCampaign(config);
  EXPECT_EQ(report.runs.size(), config.scenarios.size() *
                                    config.topologies.size() *
                                    config.seeds.size());
  for (const RunResult& r : report.runs) {
    SCOPED_TRACE(r.scenario + " " + r.topology + " seed " +
                 std::to_string(r.seed));
    auto it = committed.find({r.scenario, r.topology, r.seed});
    if (it == committed.end()) {
      ADD_FAILURE() << "run missing from " << file;
      continue;
    }
    EXPECT_EQ(r.ok, it->second.Find("ok")->b);
    EXPECT_EQ(HexU64(r.log_hash), it->second.Find("log_hash")->str);
    EXPECT_EQ(HexU64(r.metrics_hash), it->second.Find("metrics_hash")->str);
  }
}

// chaosrun's default campaign: 13 scenarios x line6/ring8/torus3x3 x seeds
// 0..4, 195 runs.
TEST(CommittedReports, DefaultCampaignMatchesChaosReport) {
  ExpectMatchesCommitted(
      Campaign(DefaultCorpus(), StandardTopologyNames(), 5),
      "chaos-report.json");
}

// `chaosrun --slo-corpus --topo small3 --seeds 2`: every workload scenario
// under its faults on the triangle.
TEST(CommittedReports, SloCorpusOnSmall3MatchesSloReport) {
  ExpectMatchesCommitted(Campaign(SloCorpus(), {"small3"}, 2),
                         "slo-report.json");
}

}  // namespace
}  // namespace chaos
}  // namespace autonet
