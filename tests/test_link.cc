#include <gtest/gtest.h>

#include <vector>

#include "src/link/link.h"
#include "src/link/slots.h"
#include "src/sim/simulator.h"

namespace autonet {
namespace {

// Records everything it receives.
class RecordingEndpoint : public LinkEndpoint {
 public:
  void OnPacketBegin(const SpanRef& span) override {
    begins.push_back(span->packet);
    spans.push_back(span);
  }
  void OnPacketEnd(const Span& span) override {
    for (std::uint32_t k = span.first; k < span.planned(); ++k) {
      bytes.push_back(k);
    }
    corrupt_bytes += static_cast<int>(span.corrupt.size());
    ends.push_back(span.flags);
  }
  void OnFlowDirective(FlowDirective d) override { directives.push_back(d); }
  void OnCarrierChange(bool up) override { carrier_changes.push_back(up); }

  std::vector<PacketRef> begins;
  std::vector<SpanRef> spans;
  std::vector<std::uint32_t> bytes;
  std::vector<EndFlags> ends;
  std::vector<FlowDirective> directives;
  std::vector<bool> carrier_changes;
  int corrupt_bytes = 0;
};

PacketRef TestPacket() {
  Packet p;
  p.dest = ShortAddress(0x123);
  p.src = ShortAddress(0x456);
  p.type = PacketType::kReconfig;
  p.payload = {1, 2, 3};
  return MakePacket(std::move(p));
}

// Transmits `bytes` bytes of `pkt` from side A: begin now, bytes on the
// following data slots, end in the slot after the last byte.
void TransmitWhole(Simulator& sim, Link& link, const PacketRef& pkt,
                   std::uint32_t bytes) {
  link.TransmitBegin(Link::Side::kA, pkt);
  std::int64_t first = DataIndexAfter(sim.now());
  link.PlanBytes(Link::Side::kA, 0,
                 ByteRuns{ByteRun{0, bytes, first, sim.now(),
                                  DataSlotStart(first)}});
  sim.RunUntil(DataSlotStart(first + bytes));
  link.TransmitEnd(Link::Side::kA, EndFlags{});
}

TEST(Slots, FlowSlotEvery256) {
  EXPECT_TRUE(IsFlowSlot(0));
  EXPECT_FALSE(IsFlowSlot(1));
  EXPECT_TRUE(IsFlowSlot(256));
  EXPECT_EQ(NextFlowSlotAt(0), 0);
  EXPECT_EQ(NextFlowSlotAt(1), 256 * kSlotNs);
  EXPECT_EQ(NextFlowSlotAt(256 * kSlotNs), 256 * kSlotNs);
}

TEST(Slots, NextDataSlotSkipsFlowSlots) {
  // Slot 0 is a flow slot, so the first data slot at t=0 is slot 1.
  EXPECT_EQ(NextDataSlotAt(0), kSlotNs);
  EXPECT_EQ(NextDataSlotAt(kSlotNs), kSlotNs);
  // Just before slot 256 (a flow slot): next data slot is 257.
  EXPECT_EQ(NextDataSlotAt(255 * kSlotNs + 1), 257 * kSlotNs);
  EXPECT_EQ(NextDataSlotAfter(kSlotNs), 2 * kSlotNs);
}

TEST(Link, DeliversSymbolsAfterPropagationDelay) {
  Simulator sim;
  Link link(&sim, 1.0);  // 1 km: 64.1 slots = 5128 ns
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);

  PacketRef pkt = TestPacket();
  TransmitWhole(sim, link, pkt, 1);  // begin at 0, byte in slot 1, end in 2
  sim.Run();

  ASSERT_EQ(b.begins.size(), 1u);
  EXPECT_EQ(b.begins[0]->id, pkt->id);
  EXPECT_EQ(b.spans[0]->ArrivalOf(0), kSlotNs + PropagationDelayNs(1.0));
  EXPECT_EQ(b.bytes, (std::vector<std::uint32_t>{0}));
  ASSERT_EQ(b.ends.size(), 1u);
  EXPECT_FALSE(b.ends[0].truncated);
  EXPECT_EQ(sim.now(), 2 * kSlotNs + PropagationDelayNs(1.0));
  EXPECT_TRUE(a.begins.empty());  // nothing came back
}

TEST(Link, FlowDirectiveChangeQuantizedToFlowSlot) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);

  sim.RunUntil(10 * kSlotNs);  // mid flow-slot period
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStop);
  sim.Run();
  ASSERT_EQ(b.directives.size(), 1u);
  EXPECT_EQ(b.directives[0], FlowDirective::kStop);
  EXPECT_EQ(sim.now(), 256 * kSlotNs + PropagationDelayNs(0.1));
}

TEST(Link, RedundantDirectiveGeneratesNoEvent) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStart);
  sim.Run();
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStart);
  sim.Run();
  EXPECT_EQ(b.directives.size(), 1u);
}

TEST(Link, SupersededDirectiveDeliversOnlyLatest) {
  // Two changes inside the same flow-slot period: the wire only carries the
  // latest latched value, so the receiver must see exactly one directive.
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  sim.RunUntil(10 * kSlotNs);  // mid flow-slot period
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStop);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStart);
  sim.Run();
  ASSERT_EQ(b.directives.size(), 1u);
  EXPECT_EQ(b.directives[0], FlowDirective::kStart);
}

TEST(Link, SupersededDirectiveDeliversOnlyLatestReversedOrder) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  sim.RunUntil(10 * kSlotNs);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStart);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStop);
  sim.Run();
  ASSERT_EQ(b.directives.size(), 1u);
  EXPECT_EQ(b.directives[0], FlowDirective::kStop);
}

TEST(Link, DirectiveSupersededByNoneDeliversNothing) {
  // Reverting to kNone before the flow slot cancels the pending delivery;
  // absence of directives generates no event.
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  sim.RunUntil(10 * kSlotNs);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStop);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kNone);
  sim.Run();
  EXPECT_TRUE(b.directives.empty());
}

TEST(Link, RedeliveryRacingInFlightChangeDoesNotDoubleDeliver) {
  // A redelivery (endpoint attach, mode change) while a changed directive is
  // still waiting for its flow slot must supersede the pending delivery, not
  // add a second one.
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  sim.RunUntil(10 * kSlotNs);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStop);
  link.Attach(Link::Side::kB, &b);  // re-attach redelivers latched directives
  sim.Run();
  ASSERT_EQ(b.directives.size(), 1u);
  EXPECT_EQ(b.directives[0], FlowDirective::kStop);
}

TEST(Link, CutSilencesBothSides) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  link.SetMode(LinkMode::kCut);

  EXPECT_FALSE(link.CarrierAt(Link::Side::kA));
  EXPECT_FALSE(link.CarrierAt(Link::Side::kB));
  ASSERT_FALSE(a.carrier_changes.empty());
  EXPECT_FALSE(a.carrier_changes.back());

  PacketRef pkt = TestPacket();
  link.TransmitBegin(Link::Side::kA, pkt);
  sim.Run();
  EXPECT_TRUE(b.begins.empty());
}

TEST(Link, ReflectionReturnsOwnSymbols) {
  Simulator sim;
  Link link(&sim, 0.5);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  link.SetMode(LinkMode::kReflectA);

  PacketRef pkt = TestPacket();
  link.TransmitBegin(Link::Side::kA, pkt);
  sim.Run();
  // A hears its own transmission after a round trip; B hears nothing.
  ASSERT_EQ(a.begins.size(), 1u);
  EXPECT_TRUE(b.begins.empty());
  EXPECT_EQ(sim.now(), 2 * PropagationDelayNs(0.5));
  EXPECT_TRUE(link.CarrierAt(Link::Side::kA));
  EXPECT_FALSE(link.CarrierAt(Link::Side::kB));
}

TEST(Link, ModeChangeRedeliversLatchedDirective) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStart);
  sim.Run();
  b.directives.clear();

  link.SetMode(LinkMode::kCut);
  sim.Run();
  EXPECT_TRUE(b.directives.empty());

  link.SetMode(LinkMode::kNormal);  // restore: directive reaches B again
  sim.Run();
  ASSERT_EQ(b.directives.size(), 1u);
  EXPECT_EQ(b.directives[0], FlowDirective::kStart);
}

TEST(Link, MissedDirectiveSlotsCountsSyncOnlyTransmitter) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  // A sends no directives (alternate host port): B misses one directive
  // per flow-slot period.
  Tick period = kFlowSlotPeriod * kSlotNs;
  sim.RunUntil(10 * period + 5);
  EXPECT_EQ(link.MissedDirectiveSlots(Link::Side::kB, 0), 10);
  EXPECT_EQ(link.MissedDirectiveSlots(Link::Side::kB, 5 * period), 5);

  // Once A sends directives, nothing is missed.
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kHost);
  sim.RunUntil(20 * period);
  EXPECT_EQ(link.MissedDirectiveSlots(Link::Side::kB, 15 * period), 0);
}

TEST(Link, CorruptionRateDamagesBytes) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  link.SetCorruptionRate(1.0);

  PacketRef pkt = TestPacket();
  TransmitWhole(sim, link, pkt, 10);
  sim.Run();
  EXPECT_EQ(b.corrupt_bytes, 10);
}

TEST(Link, TruncatedEndFlagPropagates) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  link.TransmitBegin(Link::Side::kA, TestPacket());
  link.TransmitEnd(Link::Side::kA, EndFlags{.truncated = true});
  sim.Run();
  ASSERT_EQ(b.ends.size(), 1u);
  EXPECT_TRUE(b.ends[0].truncated);
}

// --- span arithmetic --------------------------------------------------------

TEST(Span, RunCrossingAFlowSlotSkipsIt) {
  // Ten bytes starting in slot 251: slots 251..255, then 257..261 — slot
  // 256 carries flow control, never data.
  Simulator sim;
  Link link(&sim, 0.01);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  sim.RunUntil(250 * kSlotNs);
  TransmitWhole(sim, link, TestPacket(), 10);
  sim.Run();
  ASSERT_EQ(b.spans.size(), 1u);
  const Span& span = *b.spans[0];
  Tick d = PropagationDelayNs(0.01);
  for (std::uint32_t k = 0; k < 5; ++k) {
    EXPECT_EQ(span.ArrivalOf(k), (251 + k) * kSlotNs + d) << k;
  }
  for (std::uint32_t k = 5; k < 10; ++k) {
    EXPECT_EQ(span.ArrivalOf(k), (252 + k) * kSlotNs + d) << k;
  }
  // Arrival counting agrees with the slot arithmetic on both sides of the
  // skipped slot.
  EXPECT_EQ(span.ArrivedBefore(255 * kSlotNs + d + 1), 5u);
  EXPECT_EQ(span.ArrivedBefore(257 * kSlotNs + d), 5u);
  EXPECT_EQ(span.ArrivedBefore(257 * kSlotNs + d + 1), 6u);
  EXPECT_EQ(b.ends.size(), 1u);
  EXPECT_EQ(sim.now(), 262 * kSlotNs + d);  // end in the slot after byte 9
}

TEST(Span, WithdrawnTailNeverArrives) {
  // A transmitter that revises its plan keeps the bytes already sent and
  // loses the rest; the receiver sees only what was on the wire.
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  PacketRef pkt = TestPacket();
  link.TransmitBegin(Link::Side::kA, pkt);
  std::int64_t first = DataIndexAfter(0);
  link.PlanBytes(Link::Side::kA, 0,
                 ByteRuns{ByteRun{0, 100, first, 0, DataSlotStart(first)}});
  sim.RunUntil(DataSlotStart(first + 30) - 1);  // 30 bytes are out
  std::uint32_t sent = SentBefore(ByteRuns{ByteRun{0, 100, first}}, 0,
                                  sim.now());
  EXPECT_EQ(sent, 30u);
  link.PlanBytes(Link::Side::kA, sent, ByteRuns{});
  link.TransmitEnd(Link::Side::kA, EndFlags{.truncated = true});
  sim.Run();
  ASSERT_EQ(b.ends.size(), 1u);
  EXPECT_EQ(b.bytes.size(), 30u);
  EXPECT_TRUE(b.ends[0].truncated);
}

}  // namespace
}  // namespace autonet
