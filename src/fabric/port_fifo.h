// The receive FIFO of a switch port (section 5.1): a 4096-slot buffer of
// 9-bit symbols holding data bytes and packet end marks.  Cut-through means
// a packet can be entering at the tail while leaving at the head; the FIFO
// therefore tracks per-packet byte counts instead of storing payload bytes
// (packet contents travel by reference; only *timing* and *occupancy* are
// byte-exact).
//
// Span model.  Bytes enter on the arrival schedule of the incoming link
// Span and leave on the crossbar drain's slot grid (one symbol per data
// slot while a forwarder streams the head packet), so occupancy is a
// piecewise-linear function of time that is computed, not stepped by
// events.  Settle(t) brings the counts up to time t; Look() runs the same
// arithmetic ahead to find the next instants something observes the FIFO:
// a half-full transition (which flips start/stop, section 6.2), the head
// becoming capture-ready, the drain popping the head's end mark, and space
// freeing for control-processor staging.  It also yields the drain's
// planned byte pops, which are the forwarder's transmit plan.  Plans are
// only ever revised in the future, so settled counts never change.
//
// The walk jumps in O(1) over stretches where every symbol does the same
// thing (Skip).  A stretch crosses the half-full line wherever no one
// watches the transitions: in Settle, and in Look() once it has found the
// first flip.  The rules below give the state at the stretch's end from
// its occupancy, so a saturated stream held at the line costs O(1) per
// stretch, not one step per symbol.
//
// The per-symbol rules are those of the hardware model: an arriving byte
// when the FIFO is full is lost (and destroys its packet); the drain pops
// a byte if one is buffered, else the end mark if it has arrived, else it
// underflows and resumes at the first data slot after the next arrival;
// the flow-control state is re-derived after every pop and after every
// arrival that crosses the half-full line.
#ifndef SRC_FABRIC_PORT_FIFO_H_
#define SRC_FABRIC_PORT_FIFO_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/ids.h"
#include "src/common/packet.h"
#include "src/link/link.h"
#include "src/sim/simulator.h"

namespace autonet {

class PortFifo {
 public:
  static constexpr Tick kNever = std::numeric_limits<Tick>::max();

  // The default 4096-byte capacity is what Autonet shipped with; 1024 is
  // enough for non-broadcast traffic at 2 km (section 6.2) and is what the
  // FIFO-sizing bench sweeps.
  explicit PortFifo(std::size_t capacity = 4096);

  struct PacketRecord {
    PacketRef packet;
    // The destination address as the router will capture it.  Normally the
    // packet's own destination; fault injection may override it to model a
    // corrupted address (section 6.6.4).
    ShortAddress capture_addr;
    // Arrival schedule of the bytes still entering (null once the packet
    // has fully entered, or for packets staged whole).
    SpanRef span;
    std::uint32_t next = 0;  // next span offset to arrive
    std::uint32_t bytes_entered = 0;
    std::uint32_t bytes_consumed = 0;
    bool end_in_fifo = false;
    bool corrupted = false;
    bool truncated = false;
  };

  // An instant Look() found ahead, with the tie-break position the event
  // observing it takes (Simulator::ScheduleAnchored): an arrival's is set
  // by its transmitter's stepping in its transmit slot, a drain step's by
  // the drain's stepping in the slot before.
  struct Moment {
    Tick at = kNever;
    Tick anchor = 0;
    Simulator::StepKey stepping;

    bool operator==(const Moment& o) const {
      return at == o.at && anchor == o.anchor &&
             stepping.first == o.stepping.first &&
             stepping.set_at == o.stepping.set_at &&
             stepping.order == o.stepping.order;
    }
  };

  // What Look() found ahead of the settled state, given current plans.
  struct Outlook {
    Moment flip;   // next half-full transition
    Moment ready;  // head packet becomes capture-ready
    Moment done;   // drain pops the head's end mark
    Moment stage;  // room for `stage_need` symbols
    // The last planned byte of an incoming packet whose end is not yet
    // known lands (settling then leaves the counts final if the sender
    // stopped mid-packet).
    Moment tail;
    std::uint32_t pops_from = 0;  // head offset the pop plan starts at
    ByteRuns pops;                // the drain's planned byte pops
  };

  // --- enqueue side ---
  // A packet begins arriving; its bytes follow `span`'s schedule (null: the
  // bytes are pushed explicitly with PushBytes).
  void PushBegin(const PacketRef& packet, SpanRef span = nullptr);
  // Immediately enters `n` bytes of the incoming packet (staging).  Bytes
  // beyond capacity are lost and corrupt the packet.
  void PushBytes(std::uint32_t n);
  // The incoming packet's end mark enters now.
  void PushEnd(EndFlags flags);
  // Carrier vanished mid-packet: terminate the incoming packet as
  // truncated.  Returns its span and the first offset that never entered
  // (those bytes still arrive, outside any packet), or null.
  SpanRef AbortIncoming(std::uint32_t* stray_from);
  bool receiving() const { return receiving_; }
  const PacketRecord& incoming_record() const { return records_.back(); }
  // The span feeding the incoming packet, if any.
  const Span* incoming_span() const {
    return receiving_ ? records_.back().span.get() : nullptr;
  }

  // --- head side (crossbar feed) ---
  bool HasHead() const { return !records_.empty(); }
  const PacketRecord& head() const { return records_.front(); }
  // The router can capture the address once the first two bytes of the head
  // packet are buffered (or the whole runt packet has arrived).
  bool HeadCaptureReady() const;

  // The crossbar drain.  StartDrain: a forwarder has sent the head's begin
  // and takes its first symbol at data slot `first_step`; `chain` is when
  // that stepping was set going (used to order it against an arrival in the
  // same tick).  HoldDrain: flow control stops it (no steps from now on).
  // ResumeDrain: steps again from `next_step`.  StopDrain: the forwarder is
  // gone.
  // `stepping` keys the forwarder's uninterrupted slot-by-slot stepping; it
  // orders the planned pops against other steppings (ByteRun::stepping).
  void StartDrain(Tick first_step, Tick chain,
                  const Simulator::StepKey& stepping);
  void HoldDrain();
  void ResumeDrain(Tick next_step, Tick chain);
  void StopDrain();
  // The drain has popped the head's end mark (as of the last Settle).
  bool drain_done() const { return drain_.active && drain_.done; }
  // After the drain popped the head's end mark: removes the head and
  // returns its flags.
  EndFlags TakeDoneHead();

  // --- time ---
  // Applies every arrival and drain step before `t` (and at `t` if
  // `inclusive`).
  void Settle(Tick t, bool inclusive);
  Outlook Look(bool want_ready, std::uint32_t stage_need) const;

  // --- occupancy / statistics (as of the last Settle) ---
  std::size_t occupancy() const { return occupancy_; }
  std::size_t capacity() const { return capacity_; }
  bool MoreThanHalfFull() const { return occupancy_ > capacity_ / 2; }
  // The half-full state flow control last acted on (re-derived at every
  // pop and at arrivals crossing the line); Resync re-derives it now.
  bool flow_half() const { return flow_half_; }
  void ResyncFlowHalf() { flow_half_ = MoreThanHalfFull(); }
  std::size_t max_occupancy() const { return max_occupancy_; }
  // Highest occupancy seen right after an arriving symbol (the switch's
  // fifo_hwm gauge).
  std::size_t arrival_hwm() const { return arrival_hwm_; }
  std::uint64_t overflow_count() const { return overflow_count_; }
  std::uint64_t popped_total() const { return popped_total_; }
  std::uint64_t underflow_total() const { return underflow_total_; }
  std::uint64_t corrupt_total() const { return corrupt_total_; }
  bool empty() const { return records_.empty(); }

  void Clear();

 private:
  struct Drain {
    bool active = false;
    bool held = false;
    bool waiting = false;  // underflowed; steps after the next arrival
    bool done = false;     // popped the head's end mark
    Tick next = 0;
    Tick chain = 0;  // when the step at `next` was set going
    Simulator::StepKey stepping;
  };
  // Walk state: everything an arrival or drain step changes.  Settle runs
  // the walk on the live copy; Look runs it on a scratch copy.
  struct Progress {
    std::uint32_t next = 0;
    std::uint32_t entered = 0;
    std::uint32_t consumed = 0;
    bool end = false;
    bool lost_any = false;  // a byte was lost to overflow
  };
  struct WalkState {
    std::size_t occupancy = 0;
    bool half = false;
    bool receiving = false;
    Drain drain;
    std::size_t max_occupancy = 0;
    std::size_t arrival_hwm = 0;
    std::uint64_t overflows = 0;
    std::uint64_t popped = 0;
    std::uint64_t underflows = 0;
    Progress head;  // records_.front()
    Progress tail;  // records_.back() when it differs from the head
  };
  struct Observer;

  void WakeDrain();
  WalkState Snapshot() const;
  void Commit(const WalkState& w);
  // Runs walk events up to `limit`; `obs` (Look) records observations and
  // may stop the walk early.
  void Walk(WalkState& w, Tick limit, bool inclusive, Observer* obs) const;
  bool Skip(WalkState& w, Tick limit, bool inclusive, Observer* obs) const;

  void Account(std::ptrdiff_t delta) {
    occupancy_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(occupancy_) + delta);
    if (occupancy_ > max_occupancy_) {
      max_occupancy_ = occupancy_;
    }
  }

  std::size_t capacity_;
  std::size_t occupancy_ = 0;  // buffered data bytes + end marks
  std::size_t max_occupancy_ = 0;
  std::size_t arrival_hwm_ = 0;
  std::uint64_t overflow_count_ = 0;
  std::uint64_t popped_total_ = 0;
  std::uint64_t underflow_total_ = 0;
  std::uint64_t corrupt_total_ = 0;
  bool receiving_ = false;  // a packet is currently arriving
  bool flow_half_ = false;
  Tick settled_ = 0;
  Drain drain_;
  std::vector<PacketRecord> records_;  // head first; cut-through keeps 1-2
};

}  // namespace autonet

#endif  // SRC_FABRIC_PORT_FIFO_H_
