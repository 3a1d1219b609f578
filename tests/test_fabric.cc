#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "src/fabric/port_fifo.h"
#include "src/fabric/scheduler.h"
#include "src/fabric/switch.h"
#include "src/host/controller.h"
#include "src/link/slots.h"
#include "src/routing/spanning_tree.h"
#include "src/routing/updown.h"
#include "src/sim/simulator.h"
#include "tests/topo_helpers.h"

namespace autonet {
namespace {

PacketRef DataPacket(ShortAddress dest, ShortAddress src,
                     std::size_t data_bytes = 12) {
  Packet p;
  p.dest = dest;
  p.src = src;
  p.type = PacketType::kEthernetEncap;
  p.payload.assign(data_bytes, 0x5A);
  return MakePacket(std::move(p));
}

// --- PortFifo ---

// A drain that steps from data slot `first` on (as a forwarder's begin step
// in the slot before would start it).
void StartDrainAt(PortFifo& fifo, std::int64_t first) {
  Tick before = DataSlotStart(first - 1);
  fifo.StartDrain(DataSlotStart(first), before, Simulator::StepKey{});
}

// An incoming span of `bytes` bytes transmitted from data index `first`
// over a link of propagation delay `delay`.
SpanRef IncomingSpan(const PacketRef& pkt, std::uint32_t bytes,
                     std::int64_t first, Tick delay) {
  auto span = std::make_shared<Span>();
  span->packet = pkt;
  span->delay = delay;
  span->runs.push_back(ByteRun{0, bytes, first, 0, DataSlotStart(first)});
  return span;
}

TEST(PortFifo, CutThroughByteAccounting) {
  PortFifo fifo(64);
  PacketRef pkt = DataPacket(ShortAddress(0x20), ShortAddress(0x10));
  fifo.PushBegin(pkt);
  EXPECT_FALSE(fifo.HeadCaptureReady());
  fifo.PushBytes(1);
  EXPECT_FALSE(fifo.HeadCaptureReady());
  fifo.PushBytes(1);
  EXPECT_TRUE(fifo.HeadCaptureReady());  // two address bytes buffered
  EXPECT_EQ(fifo.occupancy(), 2u);

  // Pop while still receiving (cut-through): one byte per data slot.
  StartDrainAt(fifo, 10);
  fifo.Settle(DataSlotStart(10), /*inclusive=*/true);
  EXPECT_EQ(fifo.head().bytes_consumed, 1u);
  EXPECT_EQ(fifo.occupancy(), 1u);
  fifo.PushBytes(1);
  fifo.Settle(DataSlotStart(12), /*inclusive=*/true);
  EXPECT_EQ(fifo.head().bytes_consumed, 3u);
  fifo.Settle(DataSlotStart(13), /*inclusive=*/true);
  EXPECT_EQ(fifo.underflow_total(), 1u);  // drained ahead of arrival
  EXPECT_FALSE(fifo.drain_done());

  // The end mark wakes the drain, which pops it in the next data slot.
  fifo.PushEnd(EndFlags{});
  PortFifo::Outlook look = fifo.Look(false, 0);
  EXPECT_EQ(look.done.at, DataSlotStart(14));
  fifo.Settle(look.done.at, /*inclusive=*/true);
  ASSERT_TRUE(fifo.drain_done());
  EndFlags end = fifo.TakeDoneHead();
  EXPECT_FALSE(end.corrupted);
  EXPECT_TRUE(fifo.empty());
}

TEST(PortFifo, EndMarkOccupiesASlot) {
  PortFifo fifo(64);
  fifo.PushBegin(DataPacket(ShortAddress(1), ShortAddress(2)));
  fifo.PushBytes(1);
  fifo.PushEnd(EndFlags{});
  EXPECT_EQ(fifo.occupancy(), 2u);  // 1 byte + end mark
}

TEST(PortFifo, OverflowDropsByteAndCorruptsPacket) {
  PortFifo fifo(4);
  fifo.PushBegin(DataPacket(ShortAddress(1), ShortAddress(2)));
  fifo.PushBytes(4);
  EXPECT_EQ(fifo.overflow_count(), 0u);
  fifo.PushBytes(1);  // full
  EXPECT_EQ(fifo.overflow_count(), 1u);
  fifo.PushEnd(EndFlags{});
  StartDrainAt(fifo, 1);
  PortFifo::Outlook look = fifo.Look(false, 0);
  EXPECT_EQ(look.done.at, DataSlotStart(5));  // 4 bytes, then the end
  fifo.Settle(look.done.at, /*inclusive=*/true);
  EXPECT_TRUE(fifo.TakeDoneHead().corrupted);
}

TEST(PortFifo, HalfFullThreshold) {
  PortFifo fifo(8);
  fifo.PushBegin(DataPacket(ShortAddress(1), ShortAddress(2)));
  fifo.PushBytes(4);
  EXPECT_FALSE(fifo.MoreThanHalfFull());
  fifo.PushBytes(1);
  EXPECT_TRUE(fifo.MoreThanHalfFull());
}

TEST(PortFifo, MultiplePacketsQueueInOrder) {
  PortFifo fifo(64);
  PacketRef first = DataPacket(ShortAddress(1), ShortAddress(2));
  PacketRef second = DataPacket(ShortAddress(3), ShortAddress(4));
  fifo.PushBegin(first);
  fifo.PushBytes(2);
  fifo.PushEnd(EndFlags{});
  fifo.PushBegin(second);
  fifo.PushBytes(1);
  fifo.PushEnd(EndFlags{});

  EXPECT_EQ(fifo.head().packet->id, first->id);
  StartDrainAt(fifo, 1);
  fifo.Settle(fifo.Look(false, 0).done.at, /*inclusive=*/true);
  fifo.TakeDoneHead();
  EXPECT_EQ(fifo.head().packet->id, second->id);
}

TEST(PortFifo, AbortIncomingTruncates) {
  PortFifo fifo(64);
  fifo.PushBegin(DataPacket(ShortAddress(1), ShortAddress(2)));
  fifo.PushBytes(1);
  std::uint32_t stray_from = 0;
  fifo.AbortIncoming(&stray_from);
  StartDrainAt(fifo, 1);
  fifo.Settle(fifo.Look(false, 0).done.at, /*inclusive=*/true);
  EXPECT_TRUE(fifo.TakeDoneHead().truncated);
}

TEST(PortFifo, MaxOccupancyHighWaterMark) {
  PortFifo fifo(32);
  fifo.PushBegin(DataPacket(ShortAddress(1), ShortAddress(2)));
  fifo.PushBytes(10);
  StartDrainAt(fifo, 1);
  fifo.Settle(DataSlotStart(10), /*inclusive=*/true);
  EXPECT_EQ(fifo.occupancy(), 0u);
  EXPECT_EQ(fifo.max_occupancy(), 10u);
}

// --- span arithmetic in the FIFO ---

TEST(PortFifo, HalfFullCrossingWhileInputAndDrainOverlap) {
  // 40 bytes arrive one per data slot (51 ns after their slot); the drain
  // starts 12 slots in and then keeps pace.  Occupancy first exceeds 8 when
  // the ninth byte lands, holds near 12 while both streams run, and falls
  // back to 8 at the fourth pop after the input ends.
  const Tick d = 51;
  PortFifo fifo(16);
  PacketRef pkt = DataPacket(ShortAddress(1), ShortAddress(2), 40);
  fifo.PushBegin(pkt, IncomingSpan(pkt, 40, 0, d));
  StartDrainAt(fifo, 12);
  PortFifo::Outlook look = fifo.Look(false, 0);
  EXPECT_EQ(look.flip.at, DataSlotStart(8) + d);
  // The pop plan is one run: byte k leaves in data slot 12 + k.
  ASSERT_EQ(look.pops.size(), 1u);
  EXPECT_EQ(look.pops[0].offset, 0u);
  EXPECT_EQ(look.pops[0].count, 40u);
  EXPECT_EQ(look.pops[0].index, 12);

  fifo.Settle(look.flip.at, /*inclusive=*/true);
  EXPECT_TRUE(fifo.flow_half());
  EXPECT_EQ(fifo.occupancy(), 9u);
  PortFifo::Outlook next = fifo.Look(false, 0);
  EXPECT_EQ(next.flip.at, DataSlotStart(43));
  fifo.Settle(DataSlotStart(39) + d, /*inclusive=*/true);
  EXPECT_EQ(fifo.occupancy(), 12u);
  EXPECT_EQ(fifo.max_occupancy(), 12u);  // twelve in before the first pop
  fifo.Settle(next.flip.at, /*inclusive=*/true);
  EXPECT_FALSE(fifo.flow_half());
  EXPECT_EQ(fifo.occupancy(), 8u);
}

TEST(PortFifo, CutOnAByteArrivalTickTruncatesBeforeThatByte) {
  // Loss of carrier at the very tick byte 5 would land: the FIFO settles
  // everything strictly before the cut, so bytes 0-4 entered and byte 5
  // onwards arrive outside any packet.
  const Tick d = 51;
  PortFifo fifo(64);
  PacketRef pkt = DataPacket(ShortAddress(1), ShortAddress(2), 20);
  SpanRef span = IncomingSpan(pkt, 20, 0, d);
  fifo.PushBegin(pkt, span);
  Tick cut = span->ArrivalOf(5);
  EXPECT_EQ(cut, DataSlotStart(5) + d);
  fifo.Settle(cut, /*inclusive=*/false);
  EXPECT_EQ(fifo.head().bytes_entered, 5u);
  std::uint32_t stray_from = 0;
  EXPECT_EQ(fifo.AbortIncoming(&stray_from), span);
  EXPECT_EQ(stray_from, 5u);
  EXPECT_TRUE(fifo.head().truncated);
  EXPECT_EQ(fifo.occupancy(), 6u);  // five bytes and the end mark
}

// --- the FIFO against a per-symbol model ---

// The FIFO rules of port_fifo.h applied one arrival or drain step at a
// time, with no stretches: what PortFifo's O(1) stretches must reproduce.
// Holds one or two records; the last one arrives on `span_`.
class SymbolFifo {
 public:
  struct Rec {
    std::uint32_t entered = 0;
    std::uint32_t consumed = 0;
    bool end = false;
  };
  // The first instants of each kind Look() reports, and every planned pop
  // as (offset, data index).
  struct Seen {
    PortFifo::Moment flip, ready, done;
    std::vector<std::pair<std::uint32_t, std::int64_t>> pops;
  };

  explicit SymbolFifo(std::size_t capacity) : capacity_(capacity) {}

  void PushBegin(SpanRef span) {
    recs.push_back(Rec{});
    next_ = span->first;
    span_ = std::move(span);
    receiving = true;
  }
  void StartDrain(Tick first, Tick chain, const Simulator::StepKey& key) {
    drain_ = Drain{true, false, false, false, first, chain, key};
  }
  void HoldDrain() { drain_.held = true; }
  void ResumeDrain(Tick next, Tick chain) {
    drain_.held = false;
    drain_.waiting = false;
    drain_.next = next;
    drain_.chain = chain;
    drain_.key = SteppingFrom(chain, next, kLast);
  }
  void TakeDoneHead() {
    recs.erase(recs.begin());
    drain_ = Drain{};
  }
  bool done() const { return drain_.active && drain_.done; }

  void Settle(Tick t, bool inclusive) { Run(t, inclusive, false, nullptr); }
  Seen Look(bool want_ready) const {
    SymbolFifo copy = *this;
    Seen seen;
    copy.Run(PortFifo::kNever, true, want_ready, &seen);
    return seen;
  }

  std::size_t occupancy = 0;
  bool half = false;
  bool receiving = false;
  std::size_t max_occupancy = 0;
  std::size_t arrival_hwm = 0;
  std::uint64_t popped = 0;
  std::uint64_t underflows = 0;
  std::uint64_t overflows = 0;
  std::vector<Rec> recs;

 private:
  static constexpr std::uint64_t kLast =
      std::numeric_limits<std::uint64_t>::max();
  struct Drain {
    bool active = false;
    bool held = false;
    bool waiting = false;
    bool done = false;
    Tick next = 0;
    Tick chain = 0;
    Simulator::StepKey key;
  };

  static void Note(PortFifo::Moment* m, Tick at, Tick anchor,
                   const Simulator::StepKey& key) {
    if (m->at == PortFifo::kNever) {
      *m = PortFifo::Moment{at, anchor, key};
    }
  }

  void Run(Tick limit, bool inclusive, bool want_ready, Seen* seen) {
    while (!recs.empty()) {
      Tick ta = PortFifo::kNever;
      bool end = false;
      if (receiving && next_ < span_->planned()) {
        ta = span_->ArrivalOf(next_);
      } else if (receiving && span_->ended) {
        ta = span_->end_at + span_->delay;
        end = true;
      }
      Tick ts = PortFifo::kNever;
      if (drain_.active && !drain_.held && !drain_.waiting && !drain_.done) {
        ts = drain_.next;
      }
      Tick t = std::min(ta, ts);
      if (t == PortFifo::kNever || t > limit || (t == limit && !inclusive)) {
        return;
      }
      if (ta < ts || (ta == ts && ta - span_->delay <= drain_.chain)) {
        Arrive(t, end, want_ready, seen);
      } else {
        Step(t, seen);
      }
    }
  }

  void Arrive(Tick t, bool end, bool want_ready, Seen* seen) {
    Rec& tail = recs.back();
    const Tick sent = t - span_->delay;
    if (end) {
      tail.end = true;
      receiving = false;
      ++occupancy;
    } else {
      const Simulator::StepKey key = RunOf(next_).stepping;
      ++next_;
      if (occupancy >= capacity_) {  // an end mark may overfill it
        ++overflows;
      } else {
        ++tail.entered;
        // Only an arrival crossing the line raises the state.
        if (occupancy++ == capacity_ / 2 && !half) {
          half = true;
          if (seen != nullptr) {
            Note(&seen->flip, t, sent, key);
          }
        }
      }
      if (seen != nullptr && want_ready && recs.size() == 1 &&
          tail.consumed == 0 && tail.entered >= 2) {
        Note(&seen->ready, t, sent, key);
      }
    }
    max_occupancy = std::max(max_occupancy, occupancy);
    arrival_hwm = std::max(arrival_hwm, occupancy);
    if (drain_.active && drain_.waiting && !drain_.done) {
      drain_.waiting = false;
      drain_.next = NextDataSlotAfter(t);
      drain_.chain = t;
      drain_.key = SteppingFrom(t, drain_.next, kLast);
    }
  }

  void Step(Tick t, Seen* seen) {
    Rec& head = recs.front();
    bool end = false;
    if (head.entered > head.consumed) {
      if (seen != nullptr) {
        seen->pops.emplace_back(head.consumed, DataSlotsBefore(t));
      }
      ++head.consumed;
      ++popped;
    } else if (head.end) {
      end = true;
    } else {
      ++underflows;
      drain_.waiting = true;
      return;
    }
    --occupancy;
    // Every pop re-derives the state.
    if ((occupancy > capacity_ / 2) != half) {
      half = !half;
      if (seen != nullptr) {
        Note(&seen->flip, t, drain_.chain, drain_.key);
      }
    }
    if (end) {
      drain_.done = true;
      if (seen != nullptr) {
        Note(&seen->done, t, drain_.chain, drain_.key);
      }
      return;
    }
    drain_.chain = t;
    drain_.next = NextDataSlotAfter(t);
  }

  const ByteRun& RunOf(std::uint32_t k) const {
    for (const ByteRun& run : span_->runs) {
      if (k < run.end()) {
        return run;
      }
    }
    return span_->runs.back();
  }

  std::size_t capacity_;
  SpanRef span_;
  std::uint32_t next_ = 0;
  Drain drain_;
};

// The state both models expose, for comparison.
struct FifoState {
  std::size_t occupancy = 0;
  bool half = false;
  bool receiving = false;
  bool done = false;
  std::size_t max_occupancy = 0;
  std::size_t arrival_hwm = 0;
  std::uint64_t popped = 0;
  std::uint64_t underflows = 0;
  std::uint64_t overflows = 0;
  std::vector<SymbolFifo::Rec> recs;

  bool operator==(const FifoState& o) const {
    auto same = [](const SymbolFifo::Rec& a, const SymbolFifo::Rec& b) {
      return a.entered == b.entered && a.consumed == b.consumed &&
             a.end == b.end;
    };
    return occupancy == o.occupancy && half == o.half &&
           receiving == o.receiving && done == o.done &&
           max_occupancy == o.max_occupancy &&
           arrival_hwm == o.arrival_hwm && popped == o.popped &&
           underflows == o.underflows && overflows == o.overflows &&
           std::equal(recs.begin(), recs.end(), o.recs.begin(), o.recs.end(),
                      same);
  }
  friend std::ostream& operator<<(std::ostream& os, const FifoState& s) {
    os << "occupancy " << s.occupancy << " half " << s.half << " receiving "
       << s.receiving << " done " << s.done << " max " << s.max_occupancy
       << " hwm " << s.arrival_hwm << " popped " << s.popped << " underflows "
       << s.underflows << " overflows " << s.overflows << " records";
    for (const SymbolFifo::Rec& r : s.recs) {
      os << " [" << r.entered << " in, " << r.consumed << " out"
         << (r.end ? ", end" : "") << "]";
    }
    return os;
  }
};

FifoState StateOf(const PortFifo& f) {
  FifoState s{f.occupancy(),     f.flow_half(),      f.receiving(),
              f.drain_done(),    f.max_occupancy(),  f.arrival_hwm(),
              f.popped_total(),  f.underflow_total(), f.overflow_count(),
              {}};
  auto rec = [](const PortFifo::PacketRecord& r) {
    return SymbolFifo::Rec{r.bytes_entered, r.bytes_consumed, r.end_in_fifo};
  };
  if (f.HasHead()) {
    s.recs.push_back(rec(f.head()));
    if (&f.head() != &f.incoming_record()) {
      s.recs.push_back(rec(f.incoming_record()));
    }
  }
  return s;
}

FifoState StateOf(const SymbolFifo& f) {
  return FifoState{f.occupancy,     f.half,       f.receiving,
                   f.done(),        f.max_occupancy, f.arrival_hwm,
                   f.popped,        f.underflows, f.overflows,
                   f.recs};
}

// Look()'s findings, with the pop plan spelled out byte by byte.
struct LookState {
  PortFifo::Moment flip, ready, done;
  std::vector<std::pair<std::uint32_t, std::int64_t>> pops;

  bool operator==(const LookState& o) const {
    return flip == o.flip && ready == o.ready && done == o.done &&
           pops == o.pops;
  }
  friend std::ostream& operator<<(std::ostream& os, const LookState& l) {
    auto moment = [&](const char* name, const PortFifo::Moment& m) {
      os << name << " " << m.at << " (anchor " << m.anchor << ", key "
         << m.stepping.first << "/" << m.stepping.set_at << "/"
         << m.stepping.order << ") ";
    };
    moment("flip", l.flip);
    moment("ready", l.ready);
    moment("done", l.done);
    os << l.pops.size() << " pops";
    if (!l.pops.empty()) {
      os << " from " << l.pops.front().first << "@" << l.pops.front().second
         << " to " << l.pops.back().first << "@" << l.pops.back().second;
    }
    return os;
  }
};

LookState LookOf(const PortFifo::Outlook& o) {
  LookState l{o.flip, o.ready, o.done, {}};
  for (const ByteRun& run : o.pops) {
    for (std::uint32_t i = 0; i < run.count; ++i) {
      l.pops.emplace_back(run.offset + i, run.index + i);
    }
  }
  return l;
}

LookState LookOf(const SymbolFifo::Seen& s) {
  return LookState{s.flip, s.ready, s.done, s.pops};
}

// Drives PortFifo, a PortFifo settled at every data slot, and the symbol
// model with the same random inputs.  Each packet arrives in runs whose
// gaps stand for the sender's flow stops; the drain starts near the
// half-full line (or at random), is held and resumed, and takes each packet
// once its end mark is popped.  Returns the number of checkpoints visited.
int CompareWithSymbolModel(std::mt19937_64& rng, std::size_t capacity,
                           Tick delay, int packets) {
  auto uniform = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  auto chance = [&](int percent) { return uniform(1, 100) <= percent; };
  const auto line = static_cast<std::int64_t>(capacity / 2);
  // A packet's runs from data index `first` on.  Most end; the others stop
  // mid-packet and may be resumed and ended at a later checkpoint.
  auto make_span = [&](std::int64_t first) {
    auto span = std::make_shared<Span>();
    span->delay = delay;
    // Runts, packets that fill the FIFO exactly to the line (their end
    // mark crosses it), and longer ones.
    const int kind = static_cast<int>(uniform(0, 9));
    auto bytes = static_cast<std::uint32_t>(
        kind == 0   ? uniform(1, 3)
        : kind == 1 ? line
                    : uniform(line / 2, std::min<std::int64_t>(
                                            2 * capacity + 16, 5000)));
    std::uint32_t offset = 0;
    std::int64_t index = first;
    for (int r = 0; offset < bytes; ++r) {
      auto n = static_cast<std::uint32_t>(
          r == 3 ? bytes - offset : uniform(1, bytes - offset));
      Simulator::StepKey key =
          SteppingFrom(DataSlotStart(index - 1), DataSlotStart(index),
                       static_cast<std::uint64_t>(r));
      span->runs.push_back(ByteRun{offset, n, index, key});
      offset += n;
      index += n + uniform(1, line + 8);
    }
    if (chance(85)) {
      span->ended = true;
      const ByteRun& last = span->runs.back();
      span->end_at =
          DataSlotStart(last.index + last.count - 1 + uniform(1, 3));
    }
    return span;
  };

  PortFifo fifo(capacity);
  PortFifo stepped(capacity);
  SymbolFifo model(capacity);
  auto push = [&](std::int64_t first) {
    SpanRef span = make_span(first);
    PacketRef pkt = DataPacket(ShortAddress(1), ShortAddress(2));
    fifo.PushBegin(pkt, span);
    stepped.PushBegin(pkt, span);
    model.PushBegin(span);
    return span;
  };
  SpanRef span = push(uniform(0, 40));
  int pushed = 1;
  // Start the drain first when about `line` bytes are in, so that
  // cut-through holds the occupancy at the line.
  Tick hover = chance(70) ? span->ArrivalOf(static_cast<std::uint32_t>(
                                std::clamp<std::int64_t>(
                                    line + uniform(-4, 4), 0,
                                    span->planned() - 1)))
                          : -1;
  bool draining = false;
  bool held = false;
  Tick t = 0;
  bool inclusive = false;
  int checkpoint = 0;
  for (; checkpoint < 400 && !(fifo.empty() && pushed == packets);
       ++checkpoint) {
    std::ostringstream where;
    where << "capacity " << capacity << " delay " << delay << " packets "
          << packets << " checkpoint " << checkpoint << " at " << t;
    // A switch watches for readiness only while the head is not ready.
    bool want_ready = !fifo.HeadCaptureReady() && chance(50);
    PortFifo::Outlook outlook = fifo.Look(want_ready, 0);
    LookState look = LookOf(outlook);
    EXPECT_EQ(look, LookOf(model.Look(want_ready))) << where.str();
    EXPECT_EQ(LookOf(stepped.Look(want_ready, 0)), look) << where.str();
    if (::testing::Test::HasFailure()) {
      return checkpoint;
    }

    // The next checkpoint: an instant Look found, the line crossing set up
    // above, or a random step.
    Tick soonest = std::min({outlook.flip.at, outlook.ready.at,
                             outlook.done.at, outlook.tail.at});
    if (fifo.receiving() && span->ended) {
      soonest = std::min(soonest, span->end_at + delay);  // end mark lands
    }
    Tick next;
    if (!draining && hover > t) {
      next = hover;
      inclusive = true;
    } else if (soonest != PortFifo::kNever && chance(40)) {
      next = soonest;
      inclusive = true;
    } else {
      const std::int64_t reach[] = {2, 50, static_cast<std::int64_t>(capacity)};
      next = t + uniform(1, reach[uniform(0, 2)] * kSlotNs);
      inclusive = chance(70);
    }
    for (std::int64_t i = DataIndexAfter(t); DataSlotStart(i) < next; ++i) {
      stepped.Settle(DataSlotStart(i), /*inclusive=*/true);
    }
    t = next;
    fifo.Settle(t, inclusive);
    stepped.Settle(t, inclusive);
    model.Settle(t, inclusive);
    where << " -> " << t << (inclusive ? " inclusive" : "");
    EXPECT_EQ(StateOf(fifo), StateOf(model)) << where.str();
    EXPECT_EQ(StateOf(stepped), StateOf(fifo)) << where.str();
    if (::testing::Test::HasFailure()) {
      return checkpoint;
    }

    // Act on what settled, as a switch would.
    if (fifo.drain_done()) {
      fifo.TakeDoneHead();
      stepped.TakeDoneHead();
      model.TakeDoneHead();
      draining = false;
    }
    if (fifo.receiving() && !span->ended && chance(20) &&
        t >= span->ArrivalOf(span->planned() - 1)) {
      // The sender resumes the packet (a plan revised in the future).
      std::int64_t index = DataIndexAfter(t) + uniform(0, 20);
      std::uint32_t n = static_cast<std::uint32_t>(uniform(1, line + 8));
      span->runs.push_back(ByteRun{span->planned(), n, index,
                                   SteppingFrom(t, DataSlotStart(index), 9)});
      span->ended = true;
      span->end_at = DataSlotStart(index + n);
    }
    if (!fifo.receiving() && pushed < packets) {
      span = push(DataIndexAfter(t) + uniform(0, 20));
      ++pushed;
    }
    Tick first = DataSlotStart(DataIndexAfter(t) + uniform(0, 2));
    if (!draining && fifo.HasHead() && (t == hover || chance(30))) {
      Simulator::StepKey key =
          SteppingFrom(t, first, static_cast<std::uint64_t>(uniform(0, 9)));
      fifo.StartDrain(first, t, key);
      stepped.StartDrain(first, t, key);
      model.StartDrain(first, t, key);
      draining = true;
      held = false;
    } else if (draining && !held && chance(10)) {
      fifo.HoldDrain();
      stepped.HoldDrain();
      model.HoldDrain();
      held = true;
    } else if (draining && held && chance(30)) {
      fifo.ResumeDrain(first, t);
      stepped.ResumeDrain(first, t);
      model.ResumeDrain(first, t);
      held = false;
    }
  }
  return checkpoint;
}

TEST(PortFifo, StretchesMatchAPerSymbolModel) {
  std::mt19937_64 rng(16);
  int checkpoints = 0;
  for (std::size_t capacity : {16u, 64u, 4096u}) {
    for (int kind = 0; kind < 3; ++kind) {
      for (int packets = 1; packets <= 2; ++packets) {
        for (int rep = 0; rep < 40; ++rep) {
          // Below one slot, beyond it, and whole slots (0 included).
          Tick delay = kind == 0   ? std::uniform_int_distribution<Tick>(
                                         1, kSlotNs - 1)(rng)
                       : kind == 1 ? std::uniform_int_distribution<Tick>(
                                         kSlotNs + 1, 40 * kSlotNs)(rng)
                                   : kSlotNs * (rep % 4);
          checkpoints += CompareWithSymbolModel(rng, capacity, delay, packets);
          if (HasFailure()) {
            return;
          }
        }
      }
    }
  }
  EXPECT_GT(checkpoints, 5000);
}

// Records the spans arriving at the far end of a switch output.
class SpanRecorder : public LinkEndpoint {
 public:
  void OnPacketBegin(const SpanRef& span) override { spans.push_back(span); }
  void OnPacketEnd(const Span& span) override { ends.push_back(span.flags); }
  void OnFlowDirective(FlowDirective) override {}
  void OnCarrierChange(bool) override {}

  std::vector<SpanRef> spans;
  std::vector<EndFlags> ends;
};

TEST(Forwarder, StopMidPacketSplitsItsSpanAndStartResumesIt) {
  // A switch forwards a host's packet out port 2.  A stop reaching port 2
  // mid-packet holds the drain: the output span keeps the bytes sent
  // before the stop arrived and withdraws the rest.  The start that
  // follows resumes the packet in the first data slot after it arrives.
  Simulator sim;
  Switch sw(&sim, Uid(0x100), "sw");
  HostController host(&sim, Uid(0xA), "h");
  Link in(&sim, 0.01);
  Link out(&sim, 0.01);
  host.AttachPort(0, &in, Link::Side::kA);
  sw.AttachLink(1, &in, Link::Side::kB);
  sw.AttachLink(2, &out, Link::Side::kA);
  SpanRecorder far;
  out.Attach(Link::Side::kB, &far);
  out.SetFlowDirective(Link::Side::kB, FlowDirective::kStart);
  ForwardingTable table;
  table.Set(1, ShortAddress(0x555),
            ForwardingTable::Entry::Alternatives(PortVector::Single(2)));
  sw.LoadForwardingTable(table);

  const Tick period = kFlowSlotPeriod * kSlotNs;
  const Tick d = PropagationDelayNs(0.01);
  sim.RunUntil(3 * period);
  PacketRef pkt = DataPacket(ShortAddress(0x555), ShortAddress(0x111), 400);
  ASSERT_TRUE(host.Send(pkt));
  sim.RunUntil(4 * period - 100 * kSlotNs);  // the output is streaming
  out.SetFlowDirective(Link::Side::kB, FlowDirective::kStop);
  sim.RunUntil(5 * period);
  out.SetFlowDirective(Link::Side::kB, FlowDirective::kStart);
  sim.RunUntil(6 * period + 1000 * kSlotNs);

  ASSERT_EQ(far.spans.size(), 1u);
  const Span& span = *far.spans[0];
  ASSERT_EQ(span.runs.size(), 2u);
  const ByteRun& before = span.runs[0];
  const ByteRun& after = span.runs[1];
  // The stop goes out in flow slot 4 * period and lands d later; slot
  // 4 * period itself carries no data, so the last byte before the hold
  // used the slot just before it.
  EXPECT_GT(4 * period + d, before.SlotOf(before.end() - 1));
  EXPECT_EQ(before.SlotOf(before.end() - 1), 4 * period - kSlotNs);
  EXPECT_EQ(after.offset, before.end());
  EXPECT_EQ(after.SlotOf(after.offset), NextDataSlotAfter(5 * period + d));
  EXPECT_EQ(span.planned(), pkt->WireSize());
  ASSERT_EQ(far.ends.size(), 1u);
  EXPECT_FALSE(far.ends[0].truncated);
}

// --- SchedulerEngine ---

class SchedulerTest : public ::testing::Test {
 protected:
  void Init(bool fcfs = false) {
    engine_.emplace(&sim_, SchedulerEngine::Config{kRouterCycleNs, fcfs});
    engine_->SetHooks([this] { return free_; },
                      [this](const SchedulerEngine::Request& r, PortVector v) {
                        grants_.push_back({r.inport, v});
                      });
  }

  Simulator sim_;
  std::optional<SchedulerEngine> engine_;
  PortVector free_ = PortVector::All();
  std::vector<std::pair<PortNum, PortVector>> grants_;
};

TEST_F(SchedulerTest, GrantsLowestNumberedAlternative) {
  Init();
  PortVector want;
  want.Set(7);
  want.Set(3);
  engine_->Enqueue(1, want, false);
  sim_.Run();
  ASSERT_EQ(grants_.size(), 1u);
  EXPECT_EQ(grants_[0].second, PortVector::Single(3));
}

TEST_F(SchedulerTest, OneGrantPerCycle) {
  Init();
  engine_->Enqueue(1, PortVector::Single(5), false);
  engine_->Enqueue(2, PortVector::Single(6), false);
  sim_.RunUntil(kRouterCycleNs);
  EXPECT_EQ(grants_.size(), 1u);  // 2 M requests/second ceiling
  sim_.RunUntil(2 * kRouterCycleNs);
  EXPECT_EQ(grants_.size(), 2u);
}

TEST_F(SchedulerTest, QueueJumpingServesYoungerRequest) {
  Init();
  free_ = PortVector::Single(6);
  engine_->Enqueue(1, PortVector::Single(5), false);  // blocked: 5 busy
  engine_->Enqueue(2, PortVector::Single(6), false);  // can go now
  sim_.Run();
  ASSERT_EQ(grants_.size(), 1u);
  EXPECT_EQ(grants_[0].first, 2);

  // When port 5 frees, the older request is served.
  free_ = PortVector::Single(5) | PortVector::Single(6);
  engine_->Kick();
  sim_.Run();
  ASSERT_EQ(grants_.size(), 2u);
  EXPECT_EQ(grants_[1].first, 1);
}

TEST_F(SchedulerTest, FcfsBaselineHeadOfLineBlocks) {
  Init(/*fcfs=*/true);
  free_ = PortVector::Single(6);
  engine_->Enqueue(1, PortVector::Single(5), false);
  engine_->Enqueue(2, PortVector::Single(6), false);
  sim_.Run();
  EXPECT_TRUE(grants_.empty());  // younger request starves behind the head
}

TEST_F(SchedulerTest, BroadcastAccumulatesReservations) {
  Init();
  free_ = PortVector::Single(2);
  PortVector want = PortVector::Single(2) | PortVector::Single(3);
  engine_->Enqueue(1, want, true);
  sim_.Run();
  EXPECT_TRUE(grants_.empty());  // port 3 still busy; port 2 reserved

  // A younger request for the reserved port 2 cannot steal it.
  engine_->Enqueue(4, PortVector::Single(2), false);
  sim_.Run();
  EXPECT_TRUE(grants_.empty());

  // When port 3 frees, the broadcast completes with its full set.
  free_ = PortVector::Single(2) | PortVector::Single(3);
  engine_->Kick();
  sim_.Run();
  ASSERT_GE(grants_.size(), 1u);
  EXPECT_EQ(grants_[0].first, 1);
  EXPECT_EQ(grants_[0].second, want);
}

TEST_F(SchedulerTest, RemoveReleasesReservations) {
  Init();
  free_ = PortVector::Single(2);
  engine_->Enqueue(1, PortVector::Single(2) | PortVector::Single(3), true);
  sim_.Run();
  engine_->Enqueue(4, PortVector::Single(2), false);
  engine_->Remove(1);  // broadcast gives up its reservation
  sim_.Run();
  ASSERT_EQ(grants_.size(), 1u);
  EXPECT_EQ(grants_[0].first, 4);
}

// --- End-to-end forwarding through real switches ---

// Two switches, one inter-switch link, one host on each switch.
class MiniNetTest : public ::testing::Test {
 protected:
  static constexpr PortNum kTrunkPort = 1;
  static constexpr PortNum kHostPort = 3;

  void SetUp() override {
    sw_a_ = std::make_unique<Switch>(&sim_, Uid(0x100), "swA");
    sw_b_ = std::make_unique<Switch>(&sim_, Uid(0x101), "swB");
    h1_ = std::make_unique<HostController>(&sim_, Uid(0xAAA), "h1");
    h2_ = std::make_unique<HostController>(&sim_, Uid(0xBBB), "h2");

    trunk_ = std::make_unique<Link>(&sim_, 0.01);
    sw_a_->AttachLink(kTrunkPort, trunk_.get(), Link::Side::kA);
    sw_b_->AttachLink(kTrunkPort, trunk_.get(), Link::Side::kB);

    link1_ = std::make_unique<Link>(&sim_, 0.01);
    h1_->AttachPort(0, link1_.get(), Link::Side::kA);
    sw_a_->AttachLink(kHostPort, link1_.get(), Link::Side::kB);

    link2_ = std::make_unique<Link>(&sim_, 0.01);
    h2_->AttachPort(0, link2_.get(), Link::Side::kA);
    sw_b_->AttachLink(kHostPort, link2_.get(), Link::Side::kB);

    // Build and load up*/down* tables for this 2-switch topology.
    topo_ = EmptyTopology(2);
    topo_.switches[0].links.push_back({kTrunkPort, 1, kTrunkPort});
    topo_.switches[1].links.push_back({kTrunkPort, 0, kTrunkPort});
    topo_.switches[0].host_ports.Set(kHostPort);
    topo_.switches[1].host_ports.Set(kHostPort);
    AssignSwitchNumbers(&topo_);
    SpanningTree tree = ComputeSpanningTree(topo_);
    auto tables = BuildAllForwardingTables(topo_, tree);
    sw_a_->LoadForwardingTable(tables[0]);
    sw_b_->LoadForwardingTable(tables[1]);

    h1_->SetReceiveHandler([this](Delivery d) { h1_rx_.push_back(d); });
    h2_->SetReceiveHandler([this](Delivery d) { h2_rx_.push_back(d); });
  }

  ShortAddress AddrH1() const {
    return ShortAddress::FromSwitchPort(topo_.switches[0].assigned_num,
                                        kHostPort);
  }
  ShortAddress AddrH2() const {
    return ShortAddress::FromSwitchPort(topo_.switches[1].assigned_num,
                                        kHostPort);
  }

  Simulator sim_;
  NetTopology topo_;
  // Links outlive the devices that detach from them on destruction.
  std::unique_ptr<Link> trunk_, link1_, link2_;
  std::unique_ptr<Switch> sw_a_;
  std::unique_ptr<Switch> sw_b_;
  std::unique_ptr<HostController> h1_;
  std::unique_ptr<HostController> h2_;
  std::vector<Delivery> h1_rx_, h2_rx_;
};

TEST_F(MiniNetTest, UnicastDeliveryAcrossTwoSwitches) {
  PacketRef pkt = DataPacket(AddrH2(), AddrH1(), 100);
  EXPECT_TRUE(h1_->Send(pkt));
  sim_.RunUntil(1 * kMillisecond);

  ASSERT_EQ(h2_rx_.size(), 1u);
  EXPECT_EQ(h2_rx_[0].packet->id, pkt->id);
  EXPECT_TRUE(h2_rx_[0].intact());
  EXPECT_EQ(sw_a_->stats().packets_forwarded, 1u);
  EXPECT_EQ(sw_b_->stats().packets_forwarded, 1u);
}

TEST_F(MiniNetTest, CutThroughLatencyIsNotStoreAndForward) {
  // A large packet's end-to-end latency must be near one serialization time
  // plus per-switch cut-through latency, not 3x serialization.
  const std::size_t data = 4000;
  PacketRef pkt = DataPacket(AddrH2(), AddrH1(), data);
  Tick start = sim_.now();
  h1_->Send(pkt);
  sim_.RunUntil(10 * kMillisecond);
  ASSERT_EQ(h2_rx_.size(), 1u);
  Tick latency = h2_rx_[0].delivered_at - start;

  // One serialization: wire bytes at ~80ns each (plus flow slots).
  Tick serialization = static_cast<Tick>(pkt->WireSize()) * kSlotNs;
  EXPECT_GT(latency, serialization);
  EXPECT_LT(latency, serialization + 40 * kMicrosecond)
      << "looks like store-and-forward";
}

TEST_F(MiniNetTest, LocalSwitchDeliveryStaysLocal) {
  // Host to a host on the same switch: only switch A forwards.
  // (Here: h1 -> its own address loops via switch A's host entry.)
  PacketRef pkt = DataPacket(AddrH1(), AddrH1(), 10);
  h1_->Send(pkt);
  sim_.RunUntil(1 * kMillisecond);
  ASSERT_EQ(h1_rx_.size(), 1u);
  EXPECT_EQ(sw_b_->stats().packets_forwarded, 0u);
}

TEST_F(MiniNetTest, LoopbackAddressReflects) {
  PacketRef pkt = DataPacket(kAddrLoopback, AddrH1(), 10);
  h1_->Send(pkt);
  sim_.RunUntil(1 * kMillisecond);
  ASSERT_EQ(h1_rx_.size(), 1u);
  EXPECT_EQ(h1_rx_[0].packet->id, pkt->id);
  EXPECT_TRUE(h2_rx_.empty());
}

TEST_F(MiniNetTest, UnknownAddressDiscarded) {
  // An assignable address no one owns.
  PacketRef pkt = DataPacket(ShortAddress(0x7E0), AddrH1(), 10);
  h1_->Send(pkt);
  sim_.RunUntil(1 * kMillisecond);
  EXPECT_TRUE(h1_rx_.empty());
  EXPECT_TRUE(h2_rx_.empty());
  EXPECT_GE(sw_a_->stats().packets_discarded, 1u);
}

TEST_F(MiniNetTest, BroadcastReachesAllHostsAndCps) {
  std::vector<Delivery> cp_a, cp_b;
  sw_a_->SetCpHandler([&](Delivery d) { cp_a.push_back(d); });
  sw_b_->SetCpHandler([&](Delivery d) { cp_b.push_back(d); });

  PacketRef pkt = DataPacket(kAddrBroadcastAll, AddrH1(), 64);
  h1_->Send(pkt);
  sim_.RunUntil(2 * kMillisecond);

  ASSERT_EQ(h2_rx_.size(), 1u);
  ASSERT_EQ(h1_rx_.size(), 1u);  // flood-down revisits the origin subtree
  EXPECT_EQ(cp_a.size(), 1u);
  EXPECT_EQ(cp_b.size(), 1u);
}

TEST_F(MiniNetTest, BroadcastToSwitchesSkipsHosts) {
  std::vector<Delivery> cp_b;
  sw_b_->SetCpHandler([&](Delivery d) { cp_b.push_back(d); });
  PacketRef pkt = DataPacket(kAddrBroadcastSwitches, AddrH1(), 16);
  h1_->Send(pkt);
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_EQ(cp_b.size(), 1u);
  EXPECT_TRUE(h2_rx_.empty());
}

TEST_F(MiniNetTest, OneHopPacketsBetweenCps) {
  std::vector<Delivery> cp_b;
  sw_b_->SetCpHandler([&](Delivery d) { cp_b.push_back(d); });

  Packet p;
  p.dest = OneHopAddress(kTrunkPort);
  p.src = OneHopAddress(kTrunkPort);
  p.type = PacketType::kReconfig;
  p.payload.assign(20, 1);
  sw_a_->CpSend(MakePacket(std::move(p)));
  sim_.RunUntil(1 * kMillisecond);
  ASSERT_EQ(cp_b.size(), 1u);
  EXPECT_TRUE(cp_b[0].intact());
}

TEST_F(MiniNetTest, ContendingSendersBothDeliver) {
  // Both hosts send two packets to each other simultaneously; full-duplex
  // links let all four flow.
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 500));
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 500));
  h2_->Send(DataPacket(AddrH1(), AddrH2(), 500));
  h2_->Send(DataPacket(AddrH1(), AddrH2(), 500));
  sim_.RunUntil(5 * kMillisecond);
  EXPECT_EQ(h1_rx_.size(), 2u);
  EXPECT_EQ(h2_rx_.size(), 2u);
}

TEST_F(MiniNetTest, TableLoadResetDestroysInFlightPackets) {
  PacketRef pkt = DataPacket(AddrH2(), AddrH1(), 60000);
  h1_->Send(pkt);
  // Let the packet get going, then reset switch B by reloading its table.
  sim_.RunUntil(200 * kMicrosecond);
  sw_b_->LoadForwardingTable(sw_b_->forwarding_table());
  sim_.RunUntil(20 * kMillisecond);
  // The packet is lost or arrives damaged — never intact.
  for (const Delivery& d : h2_rx_) {
    EXPECT_FALSE(d.intact());
  }
  EXPECT_GE(sw_b_->stats().resets, 1u);
}

TEST_F(MiniNetTest, CorruptTrunkMarksCrcFailure) {
  trunk_->SetCorruptionRate(0.05);
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 2000));
  sim_.RunUntil(10 * kMillisecond);
  ASSERT_EQ(h2_rx_.size(), 1u);
  EXPECT_TRUE(h2_rx_[0].corrupted);
  EXPECT_EQ(h2_->stats().rx_crc_errors, 1u);
}

}  // namespace
}  // namespace autonet
