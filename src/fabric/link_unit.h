// A link unit terminates one external full-duplex link of a switch
// (section 5.1): the receive path buffers the incoming link span in the
// port FIFO and derives the flow control sent back on the same link's
// reverse channel; the transmit path carries the forwarder's byte plan down
// the link.  The unit also maintains the hardware status bits of section
// 6.5.2 that the status sampler reads; the byte-count conditions (bytes
// forwarded, damaged and stray bytes, overflow, underflow) are computed
// from the FIFO's settled spans when the status is read.
#ifndef SRC_FABRIC_LINK_UNIT_H_
#define SRC_FABRIC_LINK_UNIT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/fabric/port.h"
#include "src/link/flow.h"
#include "src/link/link.h"
#include "src/obs/metrics.h"

namespace autonet {

class Switch;

// Snapshot of a link unit's status indicators (section 6.5.2).  Current
// conditions are instantaneous; accumulated counts are since the previous
// ReadAndClearStatus() call.
struct PortStatus {
  // Current conditions.
  bool is_host = false;   // last flow control was `host`
  bool xmit_ok = false;   // last flow control allows transmission
  bool in_packet = false; // transmitter is mid-packet
  bool carrier = false;   // receive channel has signal
  FlowDirective last_rx_directive = FlowDirective::kNone;
  std::size_t fifo_occupancy = 0;

  // Accumulated conditions (cleared on read).
  std::uint32_t bad_code = 0;     // damaged symbols / loss of signal
  std::uint32_t bad_syntax = 0;   // framing errors, missing directives
  std::uint32_t overflow = 0;
  std::uint32_t underflow = 0;
  std::uint32_t idhy_seen = 0;
  std::uint32_t panic_seen = 0;
  std::uint32_t start_seen = 0;   // start/host directives received
  std::uint64_t bytes_forwarded = 0;  // progress out of the receive FIFO
};

class LinkUnit final : public LinkEndpoint, public Port {
 public:
  LinkUnit(Switch* owner, PortNum port_num, std::size_t fifo_capacity);
  ~LinkUnit() override;

  void AttachLink(Link* link, Link::Side side);
  void DetachLink();
  Link* link() const { return link_; }
  Link::Side side() const { return side_; }
  bool attached() const { return link_ != nullptr; }
  PortNum port_num() const { return port_num_; }

  // --- control-processor interface ---
  PortStatus ReadAndClearStatus();
  // While a port is classified s.dead, Autopilot forces it to send idhy in
  // place of normal flow control (section 6.5.3).
  void SetForceIdhy(bool force);
  bool force_idhy() const { return force_idhy_; }
  // Sends a momentary panic directive to reset the remote link unit.
  void SendPanicPulse();

  // --- Port (output side, driven by the forwarder) ---
  bool CanTransmitNow() const override;
  void SendBegin(const PacketRef& packet) override;
  void SendBytes(std::uint32_t from_offset, const ByteRuns& runs) override;
  void SendEnd(EndFlags flags, std::uint32_t bytes_sent) override;

  // --- LinkEndpoint (receive path) ---
  void OnPacketBegin(const SpanRef& span) override;
  void OnSpanRevised(const Span& span) override;
  void OnStraySpan(const SpanRef& span) override;
  void OnPacketEnd(const Span& span) override;
  void OnFlowDirective(FlowDirective directive) override;
  void OnCarrierChange(bool carrier_up) override;
  void OnCodeViolation() override { ++status_.bad_code; }

  // Brings the receive FIFO (and the BadSyntax count of stray bytes) up to
  // now; see PortFifo::Settle.
  void SettleReceive(bool inclusive);
  // Re-derives the outgoing flow directive (start/stop/idhy) from the FIFO
  // as it is now.
  void UpdateOutgoingFlow();
  // Latches the directive for the FIFO's flow-control state, if changed.
  void ApplyFlow();
  // The FIFO next needs attention at `wake.at` — a half-full transition, or
  // the last planned byte of a stalled sender landing (PortFifo::kNever:
  // none under current plans).
  void ScheduleWake(const PortFifo::Moment& wake);

  // Hard reset of the receive side (panic handling): clears the FIFO and
  // abandons any packet being forwarded from it.
  void ResetReceiveSide();
  // Drops the incoming packet's remaining bytes into the stray count and
  // clears the FIFO (switch reset).
  void ClearFifo();

 private:
  // Latches a changed outgoing directive and records stop-interval
  // telemetry.
  void NoteDirectiveTransition(FlowDirective d);
  // Bytes of `span` from offset `from` on arrive outside any packet.
  void AddStray(SpanRef span, std::uint32_t from);

  struct Stray {
    SpanRef span;
    std::uint32_t next;  // first offset not yet counted
  };

  Switch* owner_;
  PortNum port_num_;
  Link* link_ = nullptr;
  Link::Side side_ = Link::Side::kA;

  bool force_idhy_ = false;
  bool tx_in_packet_ = false;
  FlowDirective last_rx_directive_ = FlowDirective::kStart;  // power-up latch
  PortStatus status_;
  Tick last_status_read_ = 0;
  // FIFO totals at the previous status read (the accumulated status
  // conditions are their deltas).
  std::uint64_t read_overflows_ = 0;
  std::uint64_t read_underflows_ = 0;
  std::uint64_t read_popped_ = 0;
  std::uint64_t read_corrupt_ = 0;
  std::vector<Stray> strays_;
  bool applied_half_ = false;
  Simulator::EventId wake_event_;
  PortFifo::Moment wake_at_;

  // Flow-control telemetry: how often and for how long this unit told its
  // neighbour to stop.  The histogram is shared by all ports of the switch
  // (`switch.<name>.link.stop_interval_ns`).
  FlowDirective last_tx_directive_ = FlowDirective::kNone;
  Tick stop_began_ = -1;
  obs::Counter* m_flow_stops_ = nullptr;
  Histogram* m_stop_interval_ns_ = nullptr;
};

}  // namespace autonet

#endif  // SRC_FABRIC_LINK_UNIT_H_
