// Timing-invisibility tests for the event-engine hot path (train events,
// inverted cancellation, pooled event storage).
//
// The engine rework is only allowed to make events *cheaper*, never to move
// or reorder them: same seed must give byte-identical merged EventLog
// output.  These tests replay two fixed scenarios — a multi-hop data
// transfer and a chaos-style cut/heal reconfiguration — and diff the full
// formatted merged log against recordings captured before the rework
// (tests/data/*.log, generated from the pre-train per-byte-event engine).
//
// To regenerate the recordings after an *intentional* behaviour change, run
// with AUTONET_UPDATE_RECORDINGS=1 and commit the new files with an
// explanation of why the timeline legitimately moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/event_log.h"
#include "src/core/network.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

#ifndef AUTONET_TEST_DATA_DIR
#define AUTONET_TEST_DATA_DIR "tests/data"
#endif

std::string RecordingPath(const std::string& name) {
  return std::string(AUTONET_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::string();
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << contents;
  return out.good();
}

// A multi-hop transfer: one host at each end of a 6-switch line, a single
// 1500-byte packet crossing five switch hops (the ISSUE's motivating
// workload: ~7500 per-byte events under the old engine).
std::string RunMultiHopScenario() {
  Network net(MakeLine(6, 1));
  net.Boot();
  EXPECT_TRUE(net.WaitForConsistency(5 * 60 * kSecond));
  EXPECT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));
  EXPECT_TRUE(net.SendData(0, net.num_hosts() - 1, 1500));
  net.Run(50 * kMillisecond);
  EXPECT_EQ(net.inbox(net.num_hosts() - 1).size(), 1u);
  return EventLog::Format(net.MergedLog());
}

// A chaos-style scenario: cut a cable on a redundant topology, let the net
// reconfigure, push traffic over the detour, heal, reconfigure again.
std::string RunChaosScenario() {
  Network net(MakeTorus(3, 3, 1));
  net.Boot();
  EXPECT_TRUE(net.WaitForConsistency(5 * 60 * kSecond));
  EXPECT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));
  net.CutCable(0);
  EXPECT_TRUE(net.WaitForConsistency(net.sim().now() + 5 * 60 * kSecond));
  EXPECT_TRUE(net.SendData(0, net.num_hosts() - 1, 400));
  net.Run(50 * kMillisecond);
  net.RestoreCable(0);
  EXPECT_TRUE(net.WaitForConsistency(net.sim().now() + 5 * 60 * kSecond));
  return EventLog::Format(net.MergedLog());
}

void CheckAgainstRecording(const std::string& name, const std::string& got) {
  std::string path = RecordingPath(name);
  if (std::getenv("AUTONET_UPDATE_RECORDINGS") != nullptr) {
    ASSERT_TRUE(WriteFile(path, got)) << "cannot write " << path;
    GTEST_SKIP() << "recording updated: " << path;
  }
  std::string want = ReadFileOrEmpty(path);
  ASSERT_FALSE(want.empty())
      << "missing recording " << path
      << " — run with AUTONET_UPDATE_RECORDINGS=1 to create it";
  if (got != want) {
    // Locate the first diverging line so a failure is actionable without
    // dumping two multi-thousand-line logs.
    std::istringstream a(want), b(got);
    std::string la, lb;
    int line = 0;
    while (true) {
      bool ea = !std::getline(a, la);
      bool eb = !std::getline(b, lb);
      ++line;
      if (ea && eb) {
        break;
      }
      if (ea != eb || la != lb) {
        FAIL() << name << ": merged log diverges from recording at line "
               << line << "\n  recorded: " << (ea ? "<eof>" : la)
               << "\n  got:      " << (eb ? "<eof>" : lb);
      }
    }
    FAIL() << name << ": logs differ in length only";
  }
  SUCCEED();
}

// --- data-plane timing recordings ----------------------------------------
//
// The merged log pins the control plane only.  These recordings pin the
// data path to the tick: every tagged data packet's client delivery (time,
// flags, arrival port), the begin and end arrival of every tagged packet at
// every hop (cable or host link, receiving side), and per-switch FIFO
// high-water marks, flow-control stops and forwarding counters.  They were
// generated from the per-byte-event data path and must be reproduced
// exactly by any later data-path model.

constexpr std::uint16_t kTapEtherType = 0x88B5;

std::uint64_t TagOf(const PacketRef& packet) {
  std::uint64_t tag = 0;
  for (int i = 0; i < 8; ++i) {
    tag = tag << 8 | packet->payload[static_cast<std::size_t>(i)];
  }
  return tag;
}

bool IsTapped(const PacketRef& packet) {
  return packet != nullptr && packet->type == PacketType::kEthernetEncap &&
         packet->ether_type == kTapEtherType && packet->payload.size() >= 8;
}

// Collects the data-plane timeline of one scenario as text lines.
class DataPlaneRecorder {
 public:
  explicit DataPlaneRecorder(Network* net) : net_(net) {
    for (int c = 0; c < static_cast<int>(net->spec().cables.size()); ++c) {
      Tap(&net->cable_at(c), "cable" + std::to_string(c));
    }
    for (int h = 0; h < net->num_hosts(); ++h) {
      for (int w = 0; w < 2; ++w) {
        if (net->spec().hosts[h].alt_switch < 0 && w == 1) {
          continue;
        }
        Tap(&net->host_link(h, w),
            "host" + std::to_string(h) + "." + std::to_string(w));
      }
    }
    net->SetClientDeliveryHook([this](int host, const Delivery& d) {
      if (!IsTapped(d.packet)) {
        return;
      }
      std::ostringstream line;
      line << "deliver host=" << host << " tag=" << TagOf(d.packet)
           << " at=" << d.delivered_at << " corrupted=" << d.corrupted
           << " truncated=" << d.truncated << " port=" << d.arrival_port;
      lines_.push_back(line.str());
    });
  }

  std::string Finish() {
    std::ostringstream out;
    for (const std::string& line : lines_) {
      out << line << "\n";
    }
    for (int s = 0; s < net_->num_switches(); ++s) {
      Switch& sw = net_->switch_at(s);
      const std::string prefix = "switch." + sw.name() + ".";
      const obs::MetricRegistry& reg = net_->sim().metrics();
      auto counter = [&](const std::string& name) -> std::uint64_t {
        const obs::MetricRegistry::Entry* e = reg.Find(name);
        return e == nullptr ? 0 : e->counter.value();
      };
      auto gauge = [&](const std::string& name) -> double {
        const obs::MetricRegistry::Entry* e = reg.Find(name);
        return e == nullptr ? 0 : e->gauge.value();
      };
      Switch::Stats st = sw.stats();
      out << "switch " << sw.name() << " flow_stops="
          << counter(prefix + "link.flow_stops")
          << " packets_forwarded=" << st.packets_forwarded
          << " packets_discarded=" << st.packets_discarded
          << " bytes_forwarded=" << st.bytes_forwarded
          << " resets=" << st.resets << " fifo_hwm=";
      for (PortNum p = 0; p < kPortsPerSwitch; ++p) {
        out << (p == 0 ? "" : ",")
            << gauge(prefix + "fabric.port" + std::to_string(p) +
                       ".fifo_hwm_bytes");
      }
      out << "\n";
    }
    return out.str();
  }

 private:
  void Tap(Link* link, std::string name) {
    link->SetArrivalTap([this, link, name](Link::Side rx,
                                           const PacketRef& packet, bool end,
                                           EndFlags flags) {
      if (!IsTapped(packet)) {
        return;
      }
      std::ostringstream line;
      line << (end ? "end   " : "begin ") << name << "."
           << (rx == Link::Side::kA ? "A" : "B") << " tag=" << TagOf(packet)
           << " at=" << link->sim()->now();
      if (end) {
        line << " truncated=" << flags.truncated
             << " corrupted=" << flags.corrupted;
      }
      lines_.push_back(line.str());
    });
  }

  Network* net_;
  std::vector<std::string> lines_;
};

// Boots `spec` to a consistent, registered state and attaches a recorder.
struct DataPlaneRig {
  explicit DataPlaneRig(TopoSpec spec) : net(std::move(spec)) {
    net.Boot();
    EXPECT_TRUE(net.WaitForConsistency(5 * 60 * kSecond));
    EXPECT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));
    recorder = std::make_unique<DataPlaneRecorder>(&net);
  }
  void Send(int src, int dst, std::size_t bytes, std::uint64_t tag) {
    EXPECT_TRUE(net.SendTagged(src, dst, bytes, kTapEtherType, tag));
  }

  Network net;
  std::unique_ptr<DataPlaneRecorder> recorder;
};

// (a) The five-hop MakeLine(6,1) transfer, as a back-to-back burst.
std::string RunDataPlaneMultiHop() {
  DataPlaneRig rig(MakeLine(6, 1));
  for (std::uint64_t tag = 0; tag < 8; ++tag) {
    rig.Send(0, 5, 1500, tag);
  }
  rig.net.Run(50 * kMillisecond);
  return rig.recorder->Finish();
}

// (b) Congested fan-in: three hosts stream into one, so receive FIFOs pass
// half-full and flow control stops upstream transmitters.
std::string RunDataPlaneFanIn() {
  DataPlaneRig rig(MakeLine(4, 1));
  std::uint64_t tag = 0;
  for (int round = 0; round < 12; ++round) {
    for (int src : {0, 1, 2}) {
      rig.Send(src, 3, 1500, tag++);
    }
  }
  rig.net.Run(50 * kMillisecond);
  return rig.recorder->Finish();
}

// (c) A cable cut while a packet is streaming across it (cable 4 is the
// first inter-switch hop of the host 0 -> host 8 route).
std::string RunDataPlaneCut() {
  DataPlaneRig rig(MakeTorus(3, 3, 1));
  for (std::uint64_t tag = 0; tag < 6; ++tag) {
    rig.Send(0, rig.net.num_hosts() - 1, 1500, tag);
  }
  rig.net.Run(30 * kMicrosecond);
  rig.net.CutCable(4);
  rig.net.Run(200 * kMillisecond);
  rig.net.RestoreCable(4);
  rig.net.Run(200 * kMillisecond);
  return rig.recorder->Finish();
}

// (d) A marginal cable: per-byte corruption on one hop of the line.
std::string RunDataPlaneCorrupt() {
  DataPlaneRig rig(MakeLine(6, 1));
  rig.net.SetCableCorruptionRate(2, 2e-4);
  for (std::uint64_t tag = 0; tag < 24; ++tag) {
    rig.Send(0, 5, 1500, tag);
    rig.Send(5, 0, 600, 1000 + tag);
  }
  rig.net.Run(100 * kMillisecond);
  return rig.recorder->Finish();
}

TEST(DataPlaneTiming, MultiHopMatchesPerByteRecording) {
  CheckAgainstRecording("dataplane_multihop.txt", RunDataPlaneMultiHop());
}

TEST(DataPlaneTiming, CongestedFanInMatchesPerByteRecording) {
  std::string got = RunDataPlaneFanIn();
  // The scenario must actually exercise flow control.
  bool stopped = false;
  for (std::size_t at = got.find("flow_stops="); at != std::string::npos;
       at = got.find("flow_stops=", at + 1)) {
    stopped = stopped || got[at + 11] != '0';
  }
  EXPECT_TRUE(stopped);
  CheckAgainstRecording("dataplane_fanin.txt", got);
}

TEST(DataPlaneTiming, CutMidPacketMatchesPerByteRecording) {
  CheckAgainstRecording("dataplane_cut.txt", RunDataPlaneCut());
}

TEST(DataPlaneTiming, CorruptedCableMatchesPerByteRecording) {
  CheckAgainstRecording("dataplane_corrupt.txt", RunDataPlaneCorrupt());
}

TEST(Determinism, MultiHopTransferMatchesPreTrainRecording) {
  CheckAgainstRecording("determinism_multihop.log", RunMultiHopScenario());
}

TEST(Determinism, ChaosScenarioMatchesPreTrainRecording) {
  CheckAgainstRecording("determinism_chaos.log", RunChaosScenario());
}

TEST(Determinism, RepeatedRunsAreByteIdentical) {
  std::string first = RunMultiHopScenario();
  std::string second = RunMultiHopScenario();
  EXPECT_EQ(first, second);
  std::string chaos_first = RunChaosScenario();
  std::string chaos_second = RunChaosScenario();
  EXPECT_EQ(chaos_first, chaos_second);
}

}  // namespace
}  // namespace autonet
