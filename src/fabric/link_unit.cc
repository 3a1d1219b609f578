#include "src/fabric/link_unit.h"

#include <algorithm>

#include "src/fabric/switch.h"

namespace autonet {

LinkUnit::LinkUnit(Switch* owner, PortNum port_num, std::size_t fifo_capacity)
    : Port(fifo_capacity), owner_(owner), port_num_(port_num) {
  obs::MetricRegistry& reg = owner_->sim()->metrics();
  const std::string prefix = "switch." + owner_->name() + ".link.";
  m_flow_stops_ = reg.GetCounter(prefix + "flow_stops");
  m_stop_interval_ns_ = reg.GetHistogram(prefix + "stop_interval_ns");
}

LinkUnit::~LinkUnit() { owner_->sim()->Cancel(wake_event_); }

void LinkUnit::AttachLink(Link* link, Link::Side side) {
  link_ = link;
  side_ = side;
  link_->Attach(side, this);
  status_.carrier = link_->CarrierAt(side_);
  UpdateOutgoingFlow();
}

void LinkUnit::DetachLink() {
  if (link_ != nullptr) {
    link_->Detach(side_);
    link_ = nullptr;
  }
  status_.carrier = false;
}

void LinkUnit::SettleReceive(bool inclusive) {
  Tick now = owner_->now();
  if (link_ != nullptr) {
    link_->SettleDraws();
  }
  fifo_.Settle(now, inclusive);
  // Stray bytes arrive outside any packet: each is a framing error.
  Tick horizon = inclusive ? now + 1 : now;
  std::erase_if(strays_, [&](Stray& stray) {
    std::uint32_t arrived =
        std::max(stray.next, stray.span->ArrivedBefore(horizon));
    status_.bad_syntax += arrived - stray.next;
    stray.next = arrived;
    return (stray.span->ended || stray.span->severed) &&
           arrived >= stray.span->planned();
  });
}

void LinkUnit::AddStray(SpanRef span, std::uint32_t from) {
  if (span == nullptr) {
    return;
  }
  bool more_coming = !span->ended && !span->severed;
  if (more_coming || from < span->planned()) {
    strays_.push_back(Stray{std::move(span), from});
  }
}

PortStatus LinkUnit::ReadAndClearStatus() {
  owner_->SettlePort(port_num_, /*inclusive=*/false);
  PortStatus snapshot = status_;
  snapshot.is_host = last_rx_directive_ == FlowDirective::kHost;
  snapshot.xmit_ok = DirectiveAllowsTransmit(last_rx_directive_);
  snapshot.in_packet = tx_in_packet_;
  snapshot.carrier = link_ != nullptr && link_->CarrierAt(side_);
  snapshot.last_rx_directive = last_rx_directive_;
  snapshot.fifo_occupancy = fifo_.occupancy();
  snapshot.overflow +=
      static_cast<std::uint32_t>(fifo_.overflow_count() - read_overflows_);
  snapshot.underflow +=
      static_cast<std::uint32_t>(fifo_.underflow_total() - read_underflows_);
  snapshot.bytes_forwarded += fifo_.popped_total() - read_popped_;
  snapshot.bad_code +=
      static_cast<std::uint32_t>(fifo_.corrupt_total() - read_corrupt_);
  read_overflows_ = fifo_.overflow_count();
  read_underflows_ = fifo_.underflow_total();
  read_popped_ = fifo_.popped_total();
  read_corrupt_ = fifo_.corrupt_total();
  if (link_ != nullptr) {
    // Flow slots that carried sync instead of a directive (alternate host
    // port attached) surface as BadSyntax, which is how the status sampler
    // recognises an alternate host port (section 6.5.3).
    std::int64_t missed =
        link_->MissedDirectiveSlots(side_, last_status_read_);
    snapshot.bad_syntax += static_cast<std::uint32_t>(
        missed > 0xFFFF ? 0xFFFF : missed);
  }
  last_status_read_ = link_ != nullptr ? link_->sim()->now() : last_status_read_;
  // Clear the accumulated counters; keep the currents.
  status_ = PortStatus{};
  status_.carrier = snapshot.carrier;
  return snapshot;
}

void LinkUnit::SetForceIdhy(bool force) {
  if (force_idhy_ == force) {
    return;
  }
  force_idhy_ = force;
  UpdateOutgoingFlow();
}

void LinkUnit::SendPanicPulse() {
  if (link_ == nullptr) {
    return;
  }
  link_->SetFlowDirective(side_, FlowDirective::kPanic);
  // Resume normal flow control after one flow-slot period.
  link_->sim()->ScheduleAfter(kFlowSlotPeriod * kSlotNs,
                              [this] { UpdateOutgoingFlow(); });
}

bool LinkUnit::CanTransmitNow() const {
  return DirectiveAllowsTransmit(last_rx_directive_);
}

void LinkUnit::SendBegin(const PacketRef& packet) {
  tx_in_packet_ = true;
  if (link_ != nullptr) {
    link_->TransmitBegin(side_, packet);
  }
}

void LinkUnit::SendBytes(std::uint32_t from_offset, const ByteRuns& runs) {
  if (link_ != nullptr) {
    link_->PlanBytes(side_, from_offset, runs);
  }
}

void LinkUnit::SendEnd(EndFlags flags, std::uint32_t /*bytes_sent*/) {
  tx_in_packet_ = false;
  if (link_ != nullptr) {
    link_->TransmitEnd(side_, flags);
  }
}

void LinkUnit::OnPacketBegin(const SpanRef& span) {
  owner_->SettlePort(port_num_, /*inclusive=*/false);
  if (fifo_.receiving()) {
    // begin inside a packet: improper framing.
    ++status_.bad_syntax;
    std::uint32_t from = 0;
    SpanRef old = fifo_.AbortIncoming(&from);
    AddStray(std::move(old), from);
  }
  fifo_.PushBegin(span->packet, span);
  owner_->RefreshPort(port_num_);
}

void LinkUnit::OnSpanRevised(const Span& span) {
  if (fifo_.incoming_span() != &span) {
    return;  // not arriving yet, or no longer ours
  }
  owner_->SettlePort(port_num_, /*inclusive=*/false);
  owner_->RefreshPort(port_num_);
}

void LinkUnit::OnStraySpan(const SpanRef& span) {
  owner_->SettlePort(port_num_, /*inclusive=*/false);
  AddStray(span, span->first);
}

void LinkUnit::OnPacketEnd(const Span& span) {
  bool ours = fifo_.incoming_span() == &span;
  owner_->SettlePort(port_num_, /*inclusive=*/true);
  if (!ours) {
    if (!fifo_.receiving()) {
      ++status_.bad_syntax;
      return;
    }
    fifo_.PushEnd(span.flags);
  }
  owner_->OnFifoActivity(port_num_);
}

void LinkUnit::OnFlowDirective(FlowDirective directive) {
  switch (directive) {
    case FlowDirective::kStart:
    case FlowDirective::kHost:
      ++status_.start_seen;
      break;
    case FlowDirective::kIdhy:
      ++status_.idhy_seen;
      break;
    case FlowDirective::kPanic:
      ++status_.panic_seen;
      // Panic resets the link unit so reconfiguration packets get through.
      ResetReceiveSide();
      break;
    case FlowDirective::kStop:
    case FlowDirective::kNone:
      break;
  }
  bool could_transmit = DirectiveAllowsTransmit(last_rx_directive_);
  last_rx_directive_ = directive;
  if (DirectiveAllowsTransmit(directive) != could_transmit) {
    owner_->OnXmitOkChange(port_num_);
  }
}

void LinkUnit::OnCarrierChange(bool carrier_up) {
  status_.carrier = carrier_up;
  if (!carrier_up) {
    owner_->SettlePort(port_num_, /*inclusive=*/false);
    if (fifo_.receiving()) {
      ++status_.bad_syntax;  // packet truncated by loss of signal
      std::uint32_t from = 0;
      SpanRef span = fifo_.AbortIncoming(&from);
      AddStray(std::move(span), from);
      owner_->OnFifoActivity(port_num_);
    }
    // Loss of signal shows up as code violations at the TAXI receiver.
    ++status_.bad_code;
  }
}

void LinkUnit::UpdateOutgoingFlow() {
  owner_->SettlePort(port_num_, /*inclusive=*/false);
  fifo_.ResyncFlowHalf();
  ApplyFlow();
  owner_->RefreshPort(port_num_);
}

void LinkUnit::ApplyFlow() {
  applied_half_ = fifo_.flow_half();
  if (link_ == nullptr) {
    return;
  }
  FlowDirective d;
  if (force_idhy_) {
    d = FlowDirective::kIdhy;
  } else {
    d = applied_half_ ? FlowDirective::kStop : FlowDirective::kStart;
  }
  if (d != last_tx_directive_) {
    NoteDirectiveTransition(d);
  }
  link_->SetFlowDirective(side_, d);
}

void LinkUnit::ScheduleWake(const PortFifo::Moment& wake) {
  if (fifo_.flow_half() != applied_half_) {
    ApplyFlow();  // a transition settled at this very tick
  }
  if (wake == wake_at_) {
    return;
  }
  Simulator* sim = owner_->sim();
  sim->Cancel(wake_event_);
  wake_event_ = {};
  wake_at_ = wake;
  if (wake.at == PortFifo::kNever) {
    return;
  }
  sim->ScheduleAnchored(wake.at, wake.anchor, wake.stepping,
                        [this] {
                          wake_event_ = {};
                          wake_at_ = PortFifo::Moment{};
                          owner_->SettlePort(port_num_, /*inclusive=*/true);
                          ApplyFlow();
                          owner_->RefreshPort(port_num_);
                        },
                        &wake_event_);
}

void LinkUnit::NoteDirectiveTransition(FlowDirective d) {
  Tick now = owner_->now();
  if (d == FlowDirective::kStop) {
    m_flow_stops_->Increment();
    stop_began_ = now;
  } else if (last_tx_directive_ == FlowDirective::kStop && stop_began_ >= 0) {
    m_stop_interval_ns_->Add(static_cast<double>(now - stop_began_));
    stop_began_ = -1;
  }
  last_tx_directive_ = d;
}

void LinkUnit::ClearFifo() {
  owner_->SettlePort(port_num_, /*inclusive=*/false);
  if (fifo_.receiving()) {
    const PortFifo::PacketRecord& incoming = fifo_.incoming_record();
    AddStray(incoming.span, incoming.next);
  }
  fifo_.Clear();
}

void LinkUnit::ResetReceiveSide() {
  ClearFifo();
  owner_->OnPortReceiveReset(port_num_);
  UpdateOutgoingFlow();
}

}  // namespace autonet
