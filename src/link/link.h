// Full-duplex point-to-point link model (sections 3.1, 5.3, 6.1).
//
// A Link owns two unidirectional channels between endpoints A and B.  Each
// channel carries a stream of 80 ns symbol slots on the global slot grid
// (src/link/slots.h).  Symbols reach the remote endpoint after the
// propagation delay; flow-control directive *changes* are delivered
// quantized to the next flow-control slot (every 256th slot) plus the
// propagation delay.  Idle channels generate no events: "how many directive
// slots were missed" style questions are answered arithmetically from
// state-change timestamps.
//
// Span model.  A packet on a channel is a Span: its begin symbol, the data
// slots its bytes occupy (a few arithmetic ByteRuns — a transmitter that is
// stopped mid-packet splits its bytes into two runs), and its end symbol.
// Byte k lands at the k-th planned data slot plus the propagation delay;
// that time is computed, never scheduled.  Only the begin and end arrivals
// are simulator events.  A transmitter plans its bytes ahead (PlanBytes)
// and may revise the not-yet-transmitted part of the plan at any time
// (a stop directive, an upstream stall, a reset); the receiving endpoint is
// told synchronously (OnSpanRevised) so it can re-derive its own future.
//
// Corruption: each transmitted byte still draws once from the link's own
// RNG, in transmit order across both channels, so a marginal link sees the
// same damage as a byte-at-a-time model.  Draws are made lazily, up to the
// current time, whenever the link is touched.
//
// Fault modes reproduce the physical behaviours the paper describes:
//   kCut         no symbols arrive in either direction (unplugged cable)
//   kReflectA/B  the coax hybrid reflects the named side's own transmissions
//                back to it (unterminated cable or unpowered remote port,
//                section 5.3); the other side hears silence
// plus a per-byte corruption probability modelling a marginal link.  Bytes
// already on the wire when the mode changes still reach their old
// receiver; a packet's remaining bytes go where the new mode sends them,
// arriving at that receiver as a stray tail with no begin.
#ifndef SRC_LINK_LINK_H_
#define SRC_LINK_LINK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/packet.h"
#include "src/common/time.h"
#include "src/link/flow.h"
#include "src/link/slots.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace autonet {

// Integrity flags accompanying a packet's end command.  `truncated` means
// the packet lost its tail (the upstream switch was reset mid-forward, or
// the cable was cut); `corrupted` means some earlier byte was damaged, so
// the packet's CRC will not verify.
struct EndFlags {
  bool truncated = false;
  bool corrupted = false;
};

// Bytes [offset, offset + count) of a packet, transmitted on consecutive
// data slots starting at data index `index` by the transmitter's slot-by-
// slot `stepping`, which orders two runs that use the same slot (see
// Link::DrawUpTo).
struct ByteRun {
  std::uint32_t offset = 0;
  std::uint32_t count = 0;
  std::int64_t index = 0;
  Simulator::StepKey stepping;

  std::uint32_t end() const { return offset + count; }
  Tick SlotOf(std::uint32_t k) const {
    return DataSlotStart(index + static_cast<std::int64_t>(k - offset));
  }
};
using ByteRuns = std::vector<ByteRun>;

// The key of a stepping set going at `set_at` whose first step is the data
// slot `first`; `order` is that step's dispatch ordinal if it is an event.
inline Simulator::StepKey SteppingFrom(Tick set_at, Tick first,
                                       std::uint64_t order) {
  return Simulator::StepKey{first, DataSlotStart(DataSlotsBefore(first) - 1),
                            set_at, order};
}

// Number of bytes of `runs` (contiguous offsets from `first`) transmitted
// strictly before `t`; returns the first offset not yet transmitted.
std::uint32_t SentBefore(const ByteRuns& runs, std::uint32_t first, Tick t);

class LinkEndpoint;

// One packet's passage over a channel toward one receiver.
struct Span {
  PacketRef packet;  // null for a stray tail (its begin went elsewhere)
  LinkEndpoint* ep = nullptr;
  Tick delay = 0;
  std::uint32_t first = 0;  // first byte offset delivered to `ep`
  ByteRuns runs;            // transmit slots of bytes [first, planned())
  // Offsets of damaged bytes among those drawn so far (transmit order).
  std::vector<std::uint32_t> corrupt;
  std::uint32_t drawn = 0;  // bytes below this offset have been drawn
  bool ended = false;       // the end symbol was transmitted at end_at
  bool severed = false;     // no further symbols reach `ep` (mode change)
  Tick end_at = 0;
  EndFlags flags;

  std::uint32_t planned() const {
    return runs.empty() ? first : runs.back().end();
  }
  Tick ArrivalOf(std::uint32_t k) const;
  // First offset whose arrival is at or after `t` (bytes below it arrived
  // strictly before t).
  std::uint32_t ArrivedBefore(Tick t) const {
    return SentBefore(runs, first, t - delay);
  }
  // Damaged bytes among offsets [from, to).
  std::uint32_t CorruptIn(std::uint32_t from, std::uint32_t to) const;
};
using SpanRef = std::shared_ptr<Span>;

// Receive-path callbacks.  Implemented by switch link units and host
// controller ports.  Begin, end, directive and carrier callbacks run at
// symbol *arrival* time; OnSpanRevised runs when the transmitter changes
// its plan (at transmit time, before any revised byte can arrive).
class LinkEndpoint {
 public:
  virtual ~LinkEndpoint() = default;

  virtual void OnPacketBegin(const SpanRef& span) = 0;
  // The byte plan, end, or severance of `span` changed.  May name a span
  // whose begin has not arrived yet.
  virtual void OnSpanRevised(const Span& span) { (void)span; }
  // The tail of a packet whose begin went elsewhere is now headed here
  // (mode change mid-packet): its bytes arrive outside any packet.
  virtual void OnStraySpan(const SpanRef& span) { (void)span; }
  // The end symbol of `span` arrived (span.flags are its integrity flags).
  virtual void OnPacketEnd(const Span& span) = 0;
  virtual void OnFlowDirective(FlowDirective directive) = 0;
  // The link was cut or restored under us (also fired on mode changes that
  // silence our receive channel).
  virtual void OnCarrierChange(bool carrier_up) = 0;
  // A code violation at the receiver: physical-layer glitches such as the
  // terminated->unterminated transition of a coax link (section 7: the
  // transition "almost always causes enough BadCode status ... to classify
  // the link broken").  Default: ignored.
  virtual void OnCodeViolation() {}
};

enum class LinkMode : std::uint8_t {
  kNormal,
  kCut,
  kReflectA,  // side A hears its own transmissions; side B hears silence
  kReflectB,  // side B hears its own transmissions; side A hears silence
};

class Link {
 public:
  enum class Side : int { kA = 0, kB = 1 };
  static constexpr Side Other(Side s) {
    return s == Side::kA ? Side::kB : Side::kA;
  }

  Link(Simulator* sim, double length_km, std::uint64_t corruption_seed = 1);
  ~Link();

  void Attach(Side side, LinkEndpoint* endpoint);
  void Detach(Side side);

  // --- transmit path (called by the owning endpoint of `from`) ---
  // The begin symbol leaves now (a data slot).
  void TransmitBegin(Side from, const PacketRef& packet);
  // Replaces the plan for the current packet's bytes from runs[0].offset
  // on (every planned slot must be at or after now).  An empty `runs`
  // withdraws every byte from `from_offset` on.
  void PlanBytes(Side from, std::uint32_t from_offset, const ByteRuns& runs);
  // The end symbol leaves now; planned bytes not yet transmitted are
  // withdrawn.
  void TransmitEnd(Side from, EndFlags flags);

  // Latches the directive this side sends in flow-control slots.  kNone
  // means "send only sync in flow slots" (alternate host port behaviour).
  // The remote side observes the change at the next flow slot plus the
  // propagation delay.  A change made while a previous change is still
  // waiting for its flow slot supersedes it: only the latest latched value
  // is ever delivered.
  void SetFlowDirective(Side from, FlowDirective directive) {
    if (tx_[static_cast<int>(from)].directive == directive) {
      return;
    }
    SetFlowDirectiveChanged(from, directive);
  }
  FlowDirective flow_directive(Side from) const {
    return tx_[static_cast<int>(from)].directive;
  }

  // --- fault injection ---
  void SetMode(LinkMode mode);
  LinkMode mode() const { return mode_; }
  // Probability that any individual transmitted byte is damaged.
  void SetCorruptionRate(double per_byte_probability) {
    DrawUpTo(sim_->now());
    corruption_rate_ = per_byte_probability;
  }
  // Makes every corruption draw for bytes transmitted before now; a
  // receiver calls this before reading Span::corrupt.
  void SettleDraws() { DrawUpTo(sim_->now()); }

  // --- state queries ---
  // Whether the named side currently receives a carrier.
  bool CarrierAt(Side rx_side) const;
  // Number of flow-control slots since `since` in which the named receiving
  // side saw sync instead of a directive while carrier was present.  Used by
  // the status sampler to derive BadSyntax counts for alternate host ports.
  std::int64_t MissedDirectiveSlots(Side rx_side, Tick since) const;

  double length_km() const { return length_km_; }
  Tick propagation_delay() const { return propagation_delay_; }

  // Observer of packet boundaries reaching a receiver: called when a begin
  // (`end` false) or end symbol arrives at side `rx`, after the endpoint
  // has handled it.  For an end, `packet` is the packet it terminates (null
  // for a stray tail) and `flags` its integrity flags.  Used by tests to
  // pin per-hop data-plane timing.
  using ArrivalTap = std::function<void(Side rx, const PacketRef& packet,
                                        bool end, EndFlags flags)>;
  void SetArrivalTap(ArrivalTap tap) { tap_ = std::move(tap); }

  Simulator* sim() { return sim_; }

 private:
  struct TxState {
    FlowDirective directive = FlowDirective::kNone;
    Tick directive_since = 0;
    // The undelivered directive change scheduled for the next flow slot, if
    // any.  Cancelled when a newer change supersedes it.
    Simulator::EventId pending_directive;
  };

  // Unidirectional channel state, keyed by the transmitting side.
  struct Channel {
    // Transmitter view, independent of where the symbols go.
    bool in_packet = false;
    ByteRuns runs;  // the current packet's byte plan from offset 0
    // Delivery view: the span the current packet feeds, or null if its
    // symbols are being lost (cut link, no endpoint).
    SpanRef span;
  };

  // Where do symbols transmitted from `from` end up?  Returns false if they
  // are lost.
  bool DeliveryTarget(Side from, Side* rx_side, Tick* delay) const;
  LinkEndpoint* EndpointAt(Side side) const {
    return endpoints_[static_cast<int>(side)];
  }
  Side RxSideOf(const LinkEndpoint* ep) const;
  // Corruption draws for every byte transmitted strictly before `t`.
  void DrawUpTo(Tick t);
  // Re-derives where each channel's in-progress packet goes after a mode
  // or attachment change: severs spans whose receiver changed and starts
  // stray spans toward the new one.
  void Retarget();
  void DeliverEnd(const SpanRef& span);
  void SetFlowDirectiveChanged(Side from, FlowDirective directive);
  void ScheduleDirective(Side from, FlowDirective directive);
  void NotifyCarrier();
  void RedeliverDirectives();

  Simulator* sim_;
  double length_km_;
  Tick propagation_delay_;
  LinkMode mode_ = LinkMode::kNormal;
  double corruption_rate_ = 0.0;
  Rng corruption_rng_;
  std::array<LinkEndpoint*, 2> endpoints_{};
  std::array<TxState, 2> tx_{};
  std::array<Channel, 2> channels_{};
  std::array<bool, 2> last_carrier_{false, false};
  // Arrival events hold a weak reference: they do nothing once the link
  // is gone.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
  ArrivalTap tap_;
};

}  // namespace autonet

#endif  // SRC_LINK_LINK_H_
