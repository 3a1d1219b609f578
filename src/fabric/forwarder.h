// A forwarder is an active crossbar connection: it drains one receive FIFO
// to a set of output ports, one symbol per data slot (cut-through, section
// 3.5).  A forwarder with no output ports drains and discards the head
// packet (a forwarding-table discard entry).
//
// The drain is not stepped slot by slot.  The forwarder's begin step is an
// event; after it, the input FIFO's walk (PortFifo::Look) computes every
// byte pop from the incoming span, and the forwarder hands that pop plan
// to its output ports as their transmit plan.  Whenever the input's plan
// changes the forwarder re-plans; its only other event is the step that
// pops the end mark and finishes the packet.
//
// Flow-control interaction:
//   * transmission does not begin until every chosen output port's last
//     received directive allows it;
//   * an alternatives (unicast) forwarder stalls mid-packet whenever its
//     output port is stopped: its drain is held and the plan withdrawn
//     from that instant;
//   * a broadcast forwarder, under the paper's deadlock fix (section 6.6.6),
//     ignores stop once transmission has begun.  Config::broadcast_ignores_
//     stop=false restores the deadlocking behaviour of Figure 9 for the E7
//     baseline.
#ifndef SRC_FABRIC_FORWARDER_H_
#define SRC_FABRIC_FORWARDER_H_

#include <cstdint>

#include "src/common/ids.h"
#include "src/common/port_vector.h"
#include "src/common/time.h"
#include "src/fabric/port_fifo.h"
#include "src/sim/simulator.h"

namespace autonet {

class Switch;

class Forwarder {
 public:
  Forwarder(Switch* owner, PortNum inport, PortVector outports,
            bool broadcast);
  ~Forwarder();

  Forwarder(const Forwarder&) = delete;
  Forwarder& operator=(const Forwarder&) = delete;

  void Start();

  // The input FIFO's outlook changed (or was recomputed): revise the output
  // plan and the finishing step.
  void Replan(const PortFifo::Outlook& outlook);
  // An output port's flow-control gate changed.
  void OnThrottleChange();
  // Switch reset: terminate, transmitting a truncated end if mid-packet.
  // The owner destroys the forwarder afterwards.
  void Abort();

  PortNum inport() const { return inport_; }
  PortVector outports() const { return outports_; }
  bool broadcast() const { return broadcast_; }
  bool drain_only() const { return outports_.empty(); }

 private:
  bool OutputsAllowTransmit() const;
  bool StalledByFlowControl() const;
  void ScheduleBeginStep();
  void BeginStep();
  void ScheduleDone(const PortFifo::Outlook& outlook);
  void DoneStep();

  Switch* owner_;
  PortNum inport_;
  PortVector outports_;
  bool broadcast_;
  // Cached OutputsAllowTransmit(): changes only when a port's received
  // directive flips, which the switch signals via OnThrottleChange.
  bool outputs_allow_ = false;
  bool begun_ = false;   // begin command sent
  bool held_ = false;    // drain stopped by flow control
  bool finished_ = false;
  Simulator::EventId begin_event_;
  Tick begin_set_ = 0;  // when the pending begin step was scheduled
  // The finishing step at done_at_, anchored at the previous drain step
  // (Simulator::ScheduleAnchored) so it ties with other events at done_at_
  // as a slot-by-slot drain's step would.
  Simulator::EventId done_event_;
  PortFifo::Moment done_at_;
  // The output plan last handed to the output ports.
  std::uint32_t plan_from_ = 0;
  ByteRuns plan_;
};

}  // namespace autonet

#endif  // SRC_FABRIC_FORWARDER_H_
