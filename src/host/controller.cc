#include "src/host/controller.h"

#include "src/link/slots.h"

namespace autonet {

HostController::HostController(Simulator* sim, Uid uid, std::string name,
                               Config config)
    : sim_(sim),
      uid_(uid),
      name_(std::move(name)),
      config_(config),
      log_(name_) {
  ports_[0].Init(this, 0);
  ports_[1].Init(this, 1);
}

HostController::HostController(Simulator* sim, Uid uid, std::string name)
    : HostController(sim, uid, std::move(name), Config()) {}

HostController::~HostController() {
  DetachPort(0);
  DetachPort(1);
}

void HostController::AttachPort(int which, Link* link, Link::Side side) {
  NetPort& port = ports_[which];
  port.link = link;
  port.side = side;
  link->Attach(side, &port);
  port.carrier = link->CarrierAt(side);
  UpdatePortDirectives();
}

void HostController::DetachPort(int which) {
  NetPort& port = ports_[which];
  if (port.link != nullptr) {
    port.link->Detach(port.side);
    port.link = nullptr;
  }
}

void HostController::SelectPort(int which) {
  if (active_ == which) {
    return;
  }
  active_ = which;
  // Abandon any packet mid-transmission on the old port: it arrives
  // truncated and the destination discards it.
  if (tx_begun_) {
    NetPort& old_port = ports_[1 - which];
    if (old_port.link != nullptr) {
      old_port.link->TransmitEnd(old_port.side,
                                 EndFlags{.truncated = true, .corrupted = true});
    }
    if (streaming_) {
      // The pump was stepping every slot; its next step begins the packet
      // afresh on the new port.
      sim_->Cancel(pump_event_);
      streaming_ = false;
      pump_event_ = sim_->ScheduleAt(NextDataSlotAt(sim_->now()),
                                     [this] { PumpStep(); });
    }
    tx_run_ = ByteRun{};
    tx_begun_ = false;
    tx_offset_ = 0;
  }
  UpdatePortDirectives();
  SchedulePump();
}

void HostController::UpdatePortDirectives() {
  for (int i = 0; i < 2; ++i) {
    NetPort& port = ports_[i];
    if (port.link == nullptr) {
      continue;
    }
    FlowDirective d;
    if (i == active_) {
      d = FlowDirective::kHost;  // hosts send host in place of start
    } else {
      d = config_.host_directive_on_alternate ? FlowDirective::kHost
                                              : FlowDirective::kNone;
    }
    port.link->SetFlowDirective(port.side, d);
  }
}

bool HostController::Send(const PacketRef& packet) {
  std::size_t size = packet->WireSize();
  if (tx_queued_bytes_ + size > config_.tx_buffer_bytes) {
    ++stats_.tx_rejected_full;
    return false;
  }
  tx_queue_.push_back(packet);
  tx_queued_bytes_ += size;
  SchedulePump();
  return true;
}

bool HostController::CanTransmitNow() const {
  const NetPort& port = ports_[active_];
  if (port.link == nullptr) {
    return false;
  }
  // Broadcast transmissions ignore stop once begun (section 6.6.6).
  if (tx_begun_ && !tx_queue_.empty() && tx_queue_.front()->dest.IsBroadcast()) {
    return true;
  }
  return DirectiveAllowsTransmit(port.last_rx_directive);
}

void HostController::SchedulePump() {
  if (pump_event_.valid() || tx_queue_.empty()) {
    return;
  }
  pump_stepping_ = SteppingFrom(sim_->now(), NextDataSlotAfter(sim_->now()),
                                /*order=*/0);
  pump_event_ = sim_->ScheduleAt(NextDataSlotAfter(sim_->now()),
                                 [this] { PumpStep(); });
}

void HostController::OnThrottleChange() {
  if (CanTransmitNow()) {
    if (!tx_queue_.empty()) {
      SchedulePump();
    }
  } else if (pump_event_.valid()) {
    // The pump would find itself stopped at its next step: nothing from
    // that slot on is transmitted.
    HaltTransmission();
  }
}

std::uint32_t HostController::HaltTransmission() {
  sim_->Cancel(pump_event_);
  pump_event_ = {};
  streaming_ = false;
  if (tx_run_.count > 0) {
    std::uint32_t sent =
        SentBefore(ByteRuns{tx_run_}, tx_run_.offset, sim_->now());
    NetPort& port = ports_[active_];
    if (port.link != nullptr) {
      port.link->PlanBytes(port.side, sent, ByteRuns{});
    }
    tx_offset_ = sent;
    tx_run_ = ByteRun{};
  }
  return tx_offset_;
}

void HostController::PlanRest(Tick first) {
  NetPort& port = ports_[active_];
  std::uint32_t size =
      static_cast<std::uint32_t>(tx_queue_.front()->WireSize());
  std::uint32_t count = size - tx_offset_;  // > 0: packets carry bytes
  std::int64_t index = DataSlotsBefore(first);
  Tick end_step = DataSlotStart(index + count);
  tx_run_ = ByteRun{tx_offset_, count, index, pump_stepping_};
  port.link->PlanBytes(port.side, tx_offset_, ByteRuns{tx_run_});
  // The end step is set going in the last byte's slot.
  Tick anchor = tx_run_.SlotOf(size - 1);
  streaming_ = true;
  sim_->ScheduleAnchored(end_step, anchor, pump_stepping_,
                         [this] { PumpStep(); }, &pump_event_);
}

// One transmit step: the begin of the head packet, the resumption of its
// bytes after a stop, or its end.
void HostController::PumpStep() {
  pump_event_ = {};
  streaming_ = false;
  if (tx_run_.count > 0) {
    tx_offset_ = tx_run_.end();  // every planned byte has been sent
    tx_run_ = ByteRun{};
  }
  if (tx_queue_.empty() || !CanTransmitNow()) {
    return;  // resume on flow-directive change
  }
  NetPort& port = ports_[active_];
  const PacketRef& packet = tx_queue_.front();
  Tick now = sim_->now();
  if (now == pump_stepping_.first) {
    pump_stepping_.order = sim_->events_processed();
  }
  if (!tx_begun_) {
    port.link->TransmitBegin(port.side, packet);
    tx_begun_ = true;
    tx_offset_ = 0;
    PlanRest(NextDataSlotAfter(now));
    return;
  }
  if (tx_offset_ < packet->WireSize()) {
    PlanRest(now);  // this step carries the next byte
    return;
  }
  port.link->TransmitEnd(port.side, EndFlags{});
  ++stats_.packets_sent;
  tx_queued_bytes_ -= packet->WireSize();
  tx_queue_.pop_front();
  tx_begun_ = false;
  tx_offset_ = 0;
  if (!tx_queue_.empty()) {
    pump_event_ =
        sim_->ScheduleAt(NextDataSlotAfter(now), [this] { PumpStep(); });
  }
}

bool HostController::link_error_on_active() const {
  const NetPort& port = ports_[active_];
  return port.link == nullptr || !port.carrier;
}

// --- receive path ---

void HostController::NetPort::OnPacketBegin(const SpanRef& span) {
  rx_span = span;
}

void HostController::NetPort::OnPacketEnd(const Span& span) {
  if (index_ != owner_->active_) {
    // The alternate port's receiver is ignored by the host.
    rx_span = nullptr;
    return;
  }
  owner_->FinishReceive(*this, span);
}

void HostController::NetPort::OnFlowDirective(FlowDirective directive) {
  last_rx_directive = directive;
  if (index_ == owner_->active_) {
    owner_->OnThrottleChange();
  }
}

void HostController::NetPort::OnCarrierChange(bool carrier_up) {
  carrier = carrier_up;
  if (!carrier_up) {
    rx_span = nullptr;
  }
}

void HostController::FinishReceive(NetPort& port, const Span& end) {
  SpanRef rx = std::move(port.rx_span);
  port.rx_span = nullptr;
  if (rx == nullptr) {
    return;
  }
  port.link->SettleDraws();
  // Bytes of the packet that reached us; all of them, unless this end
  // belongs to another span (a stray tail ending mid-reception).
  std::uint32_t arrived =
      rx.get() == &end ? rx->planned() : rx->ArrivedBefore(sim_->now() + 1);
  Delivery delivery;
  delivery.packet = rx->packet;
  delivery.corrupted =
      end.flags.corrupted || rx->CorruptIn(rx->first, arrived) > 0;
  delivery.truncated =
      end.flags.truncated || arrived - rx->first != rx->packet->WireSize();
  delivery.arrival_port = &port == &ports_[0] ? 0 : 1;
  delivery.delivered_at = sim_->now();

  if (delivery.corrupted) {
    ++stats_.rx_crc_errors;
  }
  if (delivery.truncated) {
    ++stats_.rx_truncated;
  }

  std::size_t size = delivery.packet->WireSize();
  if (rx_queued_bytes_ + size > config_.rx_buffer_bytes) {
    ++stats_.rx_discarded_full;  // slow host: discard, never stop the net
    return;
  }
  rx_queue_.push_back(std::move(delivery));
  rx_queued_bytes_ += size;
  DrainRxQueue();
}

void HostController::DrainRxQueue() {
  if (rx_draining_ || rx_queue_.empty()) {
    return;
  }
  Delivery delivery = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  rx_queued_bytes_ -= delivery.packet->WireSize();

  Tick cost = config_.rx_process_ns_per_packet +
              config_.rx_process_ns_per_byte *
                  static_cast<Tick>(delivery.packet->WireSize());
  if (cost == 0) {
    ++stats_.packets_received;
    if (handler_) {
      handler_(std::move(delivery));
    }
    if (!rx_queue_.empty()) {
      DrainRxQueue();
    }
    return;
  }
  rx_draining_ = true;
  sim_->ScheduleAfter(cost, [this, d = std::move(delivery)]() mutable {
    rx_draining_ = false;
    ++stats_.packets_received;
    if (handler_) {
      handler_(std::move(d));
    }
    DrainRxQueue();
  });
}

}  // namespace autonet
