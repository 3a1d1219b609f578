#include "src/link/link.h"

#include <algorithm>
#include <utility>

namespace autonet {

const char* FlowDirectiveName(FlowDirective d) {
  switch (d) {
    case FlowDirective::kNone:
      return "none";
    case FlowDirective::kStart:
      return "start";
    case FlowDirective::kStop:
      return "stop";
    case FlowDirective::kHost:
      return "host";
    case FlowDirective::kIdhy:
      return "idhy";
    case FlowDirective::kPanic:
      return "panic";
  }
  return "?";
}

std::uint32_t SentBefore(const ByteRuns& runs, std::uint32_t first, Tick t) {
  std::uint32_t sent = first;
  std::int64_t slots = DataSlotsBefore(t);  // data indices below this are < t
  for (const ByteRun& run : runs) {
    if (run.index >= slots) {
      break;
    }
    std::int64_t n = slots - run.index;
    if (n < run.count) {
      return run.offset + static_cast<std::uint32_t>(n);
    }
    sent = run.end();
  }
  return sent;
}

Tick Span::ArrivalOf(std::uint32_t k) const {
  for (const ByteRun& run : runs) {
    if (k < run.end()) {
      return run.SlotOf(k) + delay;
    }
  }
  return runs.back().SlotOf(k) + delay;  // unreachable for planned bytes
}

std::uint32_t Span::CorruptIn(std::uint32_t from, std::uint32_t to) const {
  auto lo = std::lower_bound(corrupt.begin(), corrupt.end(), from);
  auto hi = std::lower_bound(lo, corrupt.end(), to);
  return static_cast<std::uint32_t>(hi - lo);
}

Link::Link(Simulator* sim, double length_km, std::uint64_t corruption_seed)
    : sim_(sim),
      length_km_(length_km),
      propagation_delay_(PropagationDelayNs(length_km)),
      corruption_rng_(corruption_seed) {}

Link::~Link() {
  // Directive deliveries capture `this`; arrival events check `alive_`.
  for (TxState& tx : tx_) {
    sim_->Cancel(tx.pending_directive);
  }
}

void Link::Attach(Side side, LinkEndpoint* endpoint) {
  endpoints_[static_cast<int>(side)] = endpoint;
  NotifyCarrier();
  RedeliverDirectives();
  Retarget();
}

void Link::Detach(Side side) {
  endpoints_[static_cast<int>(side)] = nullptr;
  NotifyCarrier();
  Retarget();
}

bool Link::DeliveryTarget(Side from, Side* rx_side, Tick* delay) const {
  switch (mode_) {
    case LinkMode::kNormal:
      *rx_side = Other(from);
      *delay = propagation_delay_;
      break;
    case LinkMode::kCut:
      return false;
    case LinkMode::kReflectA:
    case LinkMode::kReflectB:
      if (from != (mode_ == LinkMode::kReflectA ? Side::kA : Side::kB)) {
        return false;
      }
      *rx_side = from;
      *delay = 2 * propagation_delay_;
      break;
  }
  return EndpointAt(*rx_side) != nullptr;
}

Link::Side Link::RxSideOf(const LinkEndpoint* ep) const {
  return EndpointAt(Side::kA) == ep ? Side::kA : Side::kB;
}

bool Link::CarrierAt(Side rx_side) const {
  switch (mode_) {
    case LinkMode::kNormal:
      return EndpointAt(Other(rx_side)) != nullptr;
    case LinkMode::kCut:
      return false;
    case LinkMode::kReflectA:
      return rx_side == Side::kA && EndpointAt(Side::kA) != nullptr;
    case LinkMode::kReflectB:
      return rx_side == Side::kB && EndpointAt(Side::kB) != nullptr;
  }
  return false;
}

// Corruption draws happen once per delivered byte, in transmit order; two
// channels transmitting in the same slot draw in the order their
// transmitters step through it (Simulator::StepsBefore).
void Link::DrawUpTo(Tick t) {
  for (;;) {
    Span* pick = nullptr;
    Tick pick_slot = 0;
    const ByteRun* pick_run = nullptr;
    for (Channel& ch : channels_) {
      Span* span = ch.span.get();
      if (span == nullptr || span->drawn >= span->planned()) {
        continue;
      }
      if (corruption_rate_ <= 0.0) {
        // No draw is made for an undamageable byte; just move the cursor.
        span->drawn = std::max(span->drawn,
                               SentBefore(span->runs, span->first, t));
        continue;
      }
      std::uint32_t k = std::max(span->drawn, span->first);
      const ByteRun* run = nullptr;
      for (const ByteRun& r : span->runs) {
        if (k < r.end()) {
          run = &r;
          break;
        }
      }
      Tick slot = run->SlotOf(k);
      if (slot >= t) {
        continue;
      }
      if (pick == nullptr || slot < pick_slot ||
          (slot == pick_slot &&
           Simulator::StepsBefore(run->stepping, pick_run->stepping))) {
        pick = span;
        pick_slot = slot;
        pick_run = run;
      }
    }
    if (pick == nullptr) {
      return;
    }
    std::uint32_t k = std::max(pick->drawn, pick->first);
    if (corruption_rng_.Bernoulli(corruption_rate_)) {
      pick->corrupt.push_back(k);
    }
    pick->drawn = k + 1;
  }
}

void Link::TransmitBegin(Side from, const PacketRef& packet) {
  Tick now = sim_->now();
  DrawUpTo(now);
  Channel& ch = channels_[static_cast<int>(from)];
  ch.in_packet = true;
  ch.runs.clear();
  ch.span = nullptr;
  Side rx;
  Tick delay;
  if (!DeliveryTarget(from, &rx, &delay)) {
    return;
  }
  auto span = std::make_shared<Span>();
  span->packet = packet;
  span->ep = EndpointAt(rx);
  span->delay = delay;
  ch.span = span;
  std::weak_ptr<int> alive = alive_;
  sim_->ScheduleAt(now + delay, [this, alive, span] {
    if (alive.expired()) {
      return;
    }
    span->ep->OnPacketBegin(span);
    if (tap_) {
      tap_(RxSideOf(span->ep), span->packet, false, EndFlags{});
    }
  });
}

void Link::PlanBytes(Side from, std::uint32_t from_offset,
                     const ByteRuns& runs) {
  DrawUpTo(sim_->now());
  Channel& ch = channels_[static_cast<int>(from)];
  // Keep the already-planned bytes below from_offset, then append.
  auto trim = [from_offset](ByteRuns& rs) {
    while (!rs.empty() && rs.back().offset >= from_offset) {
      rs.pop_back();
    }
    if (!rs.empty() && rs.back().end() > from_offset) {
      rs.back().count = from_offset - rs.back().offset;
    }
  };
  trim(ch.runs);
  ch.runs.insert(ch.runs.end(), runs.begin(), runs.end());
  Span* span = ch.span.get();
  if (span == nullptr) {
    return;
  }
  trim(span->runs);
  for (ByteRun run : runs) {
    if (run.end() <= span->first) {
      continue;
    }
    if (run.offset < span->first) {
      run.index += span->first - run.offset;
      run.count -= span->first - run.offset;
      run.offset = span->first;
    }
    span->runs.push_back(run);
  }
  span->ep->OnSpanRevised(*span);
}

void Link::TransmitEnd(Side from, EndFlags flags) {
  Tick now = sim_->now();
  DrawUpTo(now);
  Channel& ch = channels_[static_cast<int>(from)];
  ch.in_packet = false;
  ch.runs.clear();
  SpanRef span = std::move(ch.span);
  ch.span = nullptr;
  if (span == nullptr) {
    Side rx;
    Tick delay;
    if (DeliveryTarget(from, &rx, &delay)) {
      // An end whose packet never reached this receiver (begin lost while
      // the link was down): it still arrives as a bare end command.
      span = std::make_shared<Span>();
      span->ep = EndpointAt(rx);
      span->delay = delay;
    } else {
      return;
    }
  } else {
    // Withdraw bytes planned at or after now: they were never sent.
    std::uint32_t sent = SentBefore(span->runs, span->first, now);
    ByteRuns& rs = span->runs;
    while (!rs.empty() && rs.back().offset >= sent) {
      rs.pop_back();
    }
    if (!rs.empty() && rs.back().end() > sent) {
      rs.back().count = sent - rs.back().offset;
    }
  }
  span->ended = true;
  span->end_at = now;
  span->flags = flags;
  span->ep->OnSpanRevised(*span);
  DeliverEnd(span);
}

void Link::DeliverEnd(const SpanRef& span) {
  std::weak_ptr<int> alive = alive_;
  sim_->ScheduleAt(span->end_at + span->delay, [this, alive, span] {
    if (alive.expired()) {
      return;
    }
    span->ep->OnPacketEnd(*span);
    if (tap_) {
      tap_(RxSideOf(span->ep), span->packet, true, span->flags);
    }
  });
}

void Link::Retarget() {
  Tick now = sim_->now();
  DrawUpTo(now);
  for (Side from : {Side::kA, Side::kB}) {
    Channel& ch = channels_[static_cast<int>(from)];
    if (!ch.in_packet) {
      continue;
    }
    Side rx;
    Tick delay;
    bool target = DeliveryTarget(from, &rx, &delay);
    if (ch.span != nullptr && target && ch.span->ep == EndpointAt(rx) &&
        ch.span->delay == delay) {
      continue;  // still headed to the same receiver
    }
    std::uint32_t sent = SentBefore(ch.runs, 0, now);
    if (ch.span != nullptr) {
      // Bytes already on the wire keep going; the rest never get there.
      SpanRef old = std::move(ch.span);
      ch.span = nullptr;
      ByteRuns& rs = old->runs;
      while (!rs.empty() && rs.back().offset >= sent) {
        rs.pop_back();
      }
      if (!rs.empty() && rs.back().end() > sent) {
        rs.back().count = sent - rs.back().offset;
      }
      old->severed = true;
      old->ep->OnSpanRevised(*old);
    }
    if (!target) {
      continue;
    }
    auto stray = std::make_shared<Span>();
    stray->ep = EndpointAt(rx);
    stray->delay = delay;
    stray->first = sent;
    stray->drawn = sent;
    for (ByteRun run : ch.runs) {
      if (run.end() <= sent) {
        continue;
      }
      if (run.offset < sent) {
        run.index += sent - run.offset;
        run.count -= sent - run.offset;
        run.offset = sent;
      }
      stray->runs.push_back(run);
    }
    ch.span = stray;
    stray->ep->OnStraySpan(stray);
  }
}

// Out-of-line slow half of SetFlowDirective: the inline wrapper has already
// established that `directive` differs from the latched value.
void Link::SetFlowDirectiveChanged(Side from, FlowDirective directive) {
  TxState& tx = tx_[static_cast<int>(from)];
  tx.directive = directive;
  tx.directive_since = sim_->now();
  // A change that is still waiting for its flow slot is superseded: the
  // wire only ever carries the latest latched value, so delivering the
  // older one too would double-deliver (and could re-order).
  if (tx.pending_directive.valid()) {
    sim_->Cancel(tx.pending_directive);
    tx.pending_directive = Simulator::EventId{};
  }
  if (directive == FlowDirective::kNone) {
    // Absence of directives generates no event; the receiving side keeps
    // acting on the last directive it received (the design oversight noted
    // in section 6.2) and the status sampler observes the missing slots via
    // MissedDirectiveSlots().
    return;
  }
  ScheduleDirective(from, directive);
}

// Schedules delivery of `directive` in the next flow-control slot, replacing
// any still-undelivered previous scheduling for this side.
void Link::ScheduleDirective(Side from, FlowDirective directive) {
  Side rx;
  Tick delay;
  if (!DeliveryTarget(from, &rx, &delay)) {
    return;
  }
  LinkEndpoint* ep = EndpointAt(rx);
  TxState& tx = tx_[static_cast<int>(from)];
  if (tx.pending_directive.valid()) {
    sim_->Cancel(tx.pending_directive);
  }
  // The change is transmitted in the next flow-control slot.
  Tick when = NextFlowSlotAt(sim_->now()) + delay;
  tx.pending_directive =
      sim_->ScheduleAt(when, [this, from, ep, directive] {
        tx_[static_cast<int>(from)].pending_directive = Simulator::EventId{};
        ep->OnFlowDirective(directive);
      });
}

void Link::SetMode(LinkMode mode) {
  if (mode_ == mode) {
    return;
  }
  DrawUpTo(sim_->now());
  mode_ = mode;
  NotifyCarrier();
  RedeliverDirectives();
  Retarget();
  // Any physical transition glitches the receivers that still hear a
  // carrier (e.g. a cable coming unterminated and starting to reflect).
  for (Side side : {Side::kA, Side::kB}) {
    if (CarrierAt(side)) {
      if (LinkEndpoint* ep = EndpointAt(side)) {
        ep->OnCodeViolation();
      }
    }
  }
}

// Directives are transmitted continuously in the real hardware, so a mode
// change or endpoint attachment makes the (unchanged) latched directive of
// the now-audible transmitter reach the receiver within one flow-slot
// period.  ScheduleDirective cancels any still-pending delivery for the
// side, so a redelivery racing an in-flight change cannot double-deliver.
void Link::RedeliverDirectives() {
  for (Side from : {Side::kA, Side::kB}) {
    const TxState& tx = tx_[static_cast<int>(from)];
    if (tx.directive == FlowDirective::kNone) {
      continue;
    }
    ScheduleDirective(from, tx.directive);
  }
}

void Link::NotifyCarrier() {
  for (Side side : {Side::kA, Side::kB}) {
    bool carrier = CarrierAt(side);
    bool& last = last_carrier_[static_cast<int>(side)];
    if (carrier != last) {
      last = carrier;
      if (LinkEndpoint* ep = EndpointAt(side)) {
        ep->OnCarrierChange(carrier);
      }
    }
  }
}

std::int64_t Link::MissedDirectiveSlots(Side rx_side, Tick since) const {
  // Who is the effective transmitter heard by rx_side?
  Side tx_side;
  switch (mode_) {
    case LinkMode::kNormal:
      tx_side = Other(rx_side);
      break;
    case LinkMode::kReflectA:
    case LinkMode::kReflectB:
      tx_side = rx_side;
      break;
    case LinkMode::kCut:
      return 0;  // silence, not sync: shows up as BadCode instead
  }
  if (!CarrierAt(rx_side)) {
    return 0;
  }
  const TxState& tx = tx_[static_cast<int>(tx_side)];
  if (tx.directive != FlowDirective::kNone) {
    return 0;
  }
  Tick from = since > tx.directive_since ? since : tx.directive_since;
  Tick period = kFlowSlotPeriod * kSlotNs;
  Tick now = sim_->now();
  if (now <= from) {
    return 0;
  }
  return now / period - from / period;
}

}  // namespace autonet
