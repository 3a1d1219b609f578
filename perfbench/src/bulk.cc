// bulk_multihop: one host on a 6-switch line streams 1500-byte packets to
// the host five switch hops away, with no faults.  The sender refills
// whenever its driver accepts a packet, so back-pressure closes the loop.
// This is the per-byte data path (engine train dispatch, link symbol
// delivery, the fabric forwarder pump); autopilot and routing sit idle.
#include <memory>

#include "perfbench/src/bench.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using autonet::Delivery;
using autonet::Network;
using autonet::Tick;

constexpr int kPackets = 4096;
constexpr std::size_t kPacketBytes = 1500;
constexpr int kSwitchHops = 5;
constexpr Tick kWindow = 20 * autonet::kMillisecond;  // ~78 packets

class BulkMultihop : public Workload {
 public:
  // The seed picks the direction along the line and the packets' tags.
  explicit BulkMultihop(std::uint64_t seed) {
    std::uint64_t state = seed;
    reverse_ = (SplitMix64(&state) & 1) != 0;
    tag_base_ = SplitMix64(&state) >> 16;  // room for kPackets increments
  }

  Rep Run(int /*index*/, Tracer* tracer) override;

  double SetupOnce() override {
    Rep rep;
    std::string error;
    SetUp(autonet::MakeLine(6, 1), nullptr, &rep, &error);
    return rep.setup_s;
  }

  std::map<std::string, std::string> PaperUnits() const override {
    return {{"sim_ms", "ms"}, {"events", "count"}, {"src_host", "index"}};
  }

 private:
  bool reverse_ = false;
  std::uint64_t tag_base_ = 0;
};

std::uint64_t ReadTag(const Delivery& d) {
  std::uint64_t tag = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    tag = (tag << 8) | d.packet->payload[i];
  }
  return tag;
}

Rep BulkMultihop::Run(int /*index*/, Tracer* tracer) {
  Rep rep;
  Scope root(tracer, "rep", "bench");
  rep.root_span = root.id();

  std::string error;
  std::unique_ptr<Network> net =
      SetUp(autonet::MakeLine(6, 1), tracer, &rep, &error);
  rep.attempted = kPackets;
  if (!error.empty()) {
    rep.errors.push_back("bulk_multihop: " + error);
    rep.failed = kPackets;
    return rep;
  }

  const int src = reverse_ ? net->num_hosts() - 1 : 0;
  const int dst = reverse_ ? 0 : net->num_hosts() - 1;
  std::vector<std::uint64_t> tags;
  tags.reserve(kPackets);
  std::uint64_t damaged = 0;
  std::uint64_t stray = 0;
  std::uint64_t record = kFnvBasis;  // the delivery record
  net->SetClientDeliveryHook([&](int host, const Delivery& d) {
    if (host != dst || d.packet->payload.size() < 8) {
      ++stray;
      return;
    }
    std::uint64_t tag = ReadTag(d);
    tags.push_back(tag);
    if (!d.intact() || d.packet->payload.size() != kPacketBytes) {
      ++damaged;
    }
    record = FnvValue(record, tag);
    record = FnvValue(record, d.delivered_at);
    record = FnvValue(record, d.packet->payload.size());
  });

  LayerCounts before = LayerCounts::Read(*net);
  const Tick sim0 = net->sim().now();
  const double t0 = CpuSeconds();
  {
    Scope phase(tracer, "steady", "bench");
    int sent = 0;
    const Tick give_up = net->sim().now() + 60 * autonet::kSecond;
    double window_cpu = t0;
    Tick window_sim = sim0;
    std::size_t window_packets = 0;
    while (static_cast<int>(tags.size()) < kPackets &&
           net->sim().now() < give_up) {
      while (sent < kPackets) {
        Scope call(tracer, "Network::SendTagged", "core");
        if (!net->SendTagged(src, dst, kPacketBytes, 0x0800,
                             tag_base_ + static_cast<std::uint64_t>(sent))) {
          break;
        }
        ++sent;
      }
      {
        Scope call(tracer, "Network::Run", "core");
        net->Run(autonet::kMillisecond);
      }
      if (net->sim().now() - window_sim >= kWindow) {
        const double cpu = CpuSeconds();
        const double packets =
            static_cast<double>(tags.size() - window_packets);
        AddWindow(&rep, cpu - window_cpu,
                  static_cast<double>(net->sim().now() - window_sim) / 1e9,
                  packets, packets * kPacketBytes);
        window_cpu = cpu;
        window_sim = net->sim().now();
        window_packets = tags.size();
      }
    }
  }
  rep.timed_cpu_s = CpuSeconds() - t0;
  rep.sim_s = static_cast<double>(net->sim().now() - sim0) / 1e9;

  Scope phase(tracer, "finalize", "bench");
  std::map<std::string, double> counts;
  {
    Scope call(tracer, "LayerCounts::Read", "obs");
    counts = LayerCounts::Read(*net).Delta(before);
  }
  // Every packet delivered once, in order, intact and at full length.
  std::uint64_t good = 0;
  for (std::size_t i = 0; i < tags.size() && i < kPackets; ++i) {
    if (tags[i] == tag_base_ + i) {
      ++good;
    }
  }
  good = good > damaged ? good - damaged : 0;
  rep.failed = kPackets - good;
  if (rep.failed > 0 || tags.size() != kPackets || stray > 0) {
    rep.errors.push_back(
        "bulk_multihop: " + std::to_string(good) + " of " +
        std::to_string(kPackets) + " packets delivered once, in order and "
        "intact (" + std::to_string(tags.size()) + " deliveries, " +
        std::to_string(damaged) + " damaged, " + std::to_string(stray) +
        " stray)");
  }

  {
    Scope call(tracer, "fingerprint", "obs");
    double f0 = CpuSeconds();
    rep.fingerprint = FnvValue(HashMergedLog(*net), record);
    rep.layer["obs.fingerprint_ms"] = (CpuSeconds() - f0) * 1e3;
  }
  if (tracer != nullptr) {
    Scope call(tracer, "routing", "routing");
    RoutingTimes routing = TimeRouting(*net);
    rep.layer["routing.spanning_tree_us"] = routing.spanning_tree_us;
    rep.layer["routing.forwarding_table_us"] = routing.forwarding_table_us;
  }

  const double events = counts["sim.events"];
  for (const auto& [name, value] : counts) {
    rep.layer[name] = value;
  }
  rep.layer["sim.events_per_payload_byte_hop"] =
      events / (static_cast<double>(kPackets * kPacketBytes) * kSwitchHops);
  rep.layer["core.boot_ms"] = rep.boot_s * 1e3;
  rep.paper["sim_ms"] = rep.sim_s * 1e3;
  rep.paper["events"] = events;
  rep.paper["src_host"] = src;
  net->SetClientDeliveryHook(nullptr);
  Scope call(tracer, "Network::~Network", "core");
  net.reset();
  return rep;
}

}  // namespace

std::unique_ptr<Workload> MakeBulkMultihop(std::uint64_t seed) {
  return std::make_unique<BulkMultihop>(seed);
}

}  // namespace perfbench
