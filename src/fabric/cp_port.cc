#include "src/fabric/cp_port.h"

#include "src/fabric/switch.h"

namespace autonet {

CpPort::CpPort(Switch* owner, std::size_t fifo_capacity)
    : Port(fifo_capacity), owner_(owner) {}

CpPort::~CpPort() { owner_->sim()->Cancel(stage_event_); }

void CpPort::InjectPacket(const PacketRef& packet) {
  pending_.push_back(packet);
  owner_->SettlePort(kCpPort, /*inclusive=*/false);
  TryStagePending();
}

void CpPort::TryStagePending() {
  while (!pending_.empty()) {
    const PacketRef& packet = pending_.front();
    std::size_t need = packet->WireSize() + 1;  // bytes + end mark
    if (fifo_.occupancy() + need > fifo_.capacity()) {
      // Wait until the crossbar drains the FIFO (Look finds the instant).
      owner_->RefreshPort(kCpPort);
      return;
    }
    fifo_.PushBegin(packet);
    fifo_.PushBytes(static_cast<std::uint32_t>(packet->WireSize()));
    fifo_.PushEnd(EndFlags{});
    pending_.pop_front();
    owner_->OnFifoActivity(kCpPort);
  }
}

void CpPort::ScheduleStaging(const PortFifo::Moment& room) {
  if (room == stage_at_) {
    return;
  }
  owner_->sim()->Cancel(stage_event_);
  stage_event_ = {};
  stage_at_ = room;
  if (room.at == PortFifo::kNever) {
    return;
  }
  owner_->sim()->ScheduleAnchored(room.at, room.anchor, room.stepping,
                                  [this] {
                                    stage_event_ = {};
                                    stage_at_ = PortFifo::Moment{};
                                    owner_->SettlePort(kCpPort,
                                                       /*inclusive=*/true);
                                    TryStagePending();
                                  },
                                  &stage_event_);
}

void CpPort::Reset() {
  pending_.clear();
  fifo_.Clear();
  ScheduleStaging(PortFifo::Moment{});
  rx_packet_ = nullptr;
}

void CpPort::DeliverAsIfReceived(const PacketRef& packet,
                                 PortNum arrival_port) {
  NoteArrivalPort(arrival_port);
  SendBegin(packet);
  SendEnd(EndFlags{}, static_cast<std::uint32_t>(packet->WireSize()));
}

void CpPort::SendBegin(const PacketRef& packet) { rx_packet_ = packet; }

void CpPort::SendEnd(EndFlags flags, std::uint32_t bytes_sent) {
  if (rx_packet_ != nullptr && handler_) {
    Delivery delivery;
    delivery.packet = rx_packet_;
    delivery.corrupted = flags.corrupted;
    delivery.truncated =
        flags.truncated || bytes_sent != rx_packet_->WireSize();
    delivery.arrival_port = arrival_port_;
    delivery.delivered_at = owner_->now();
    handler_(std::move(delivery));
  }
  rx_packet_ = nullptr;
}

}  // namespace autonet
