#include "src/fabric/forwarder.h"

#include "src/fabric/switch.h"
#include "src/link/slots.h"

namespace autonet {

namespace {

// True if `next` (from offset `from`) plans the same bytes as `prev` from
// that offset on.
bool SamePlanFrom(const ByteRuns& prev, std::uint32_t from,
                  const ByteRuns& next) {
  std::size_t i = 0;
  while (i < prev.size() && prev[i].end() <= from) {
    ++i;
  }
  std::size_t j = 0;
  for (; i < prev.size() && j < next.size(); ++i, ++j) {
    ByteRun a = prev[i];
    if (a.offset < from) {
      a.index += from - a.offset;
      a.count -= from - a.offset;
      a.offset = from;
    }
    const ByteRun& b = next[j];
    if (a.offset != b.offset || a.count != b.count || a.index != b.index) {
      return false;
    }
  }
  return i == prev.size() && j == next.size();
}

}  // namespace

Forwarder::Forwarder(Switch* owner, PortNum inport, PortVector outports,
                     bool broadcast)
    : owner_(owner),
      inport_(inport),
      outports_(outports),
      broadcast_(broadcast) {
  outputs_allow_ = OutputsAllowTransmit();
}

Forwarder::~Forwarder() {
  owner_->sim()->Cancel(begin_event_);
  owner_->sim()->Cancel(done_event_);
}

void Forwarder::Start() { ScheduleBeginStep(); }

bool Forwarder::OutputsAllowTransmit() const {
  bool ok = true;
  outports_.ForEach([&](PortNum p) {
    if (!owner_->port(p).CanTransmitNow()) {
      ok = false;
    }
  });
  return ok;
}

bool Forwarder::StalledByFlowControl() const {
  if (drain_only()) {
    return false;
  }
  if (!begun_) {
    // Transmission must begin under a start (or host) directive on every
    // chosen output port.
    return !outputs_allow_;
  }
  if (broadcast_ && owner_->config().broadcast_ignores_stop) {
    return false;  // section 6.6.6 fix: ignore stop until end of packet
  }
  return !outputs_allow_;
}

void Forwarder::ScheduleBeginStep() {
  if (begin_event_.valid() || finished_) {
    return;
  }
  begin_set_ = owner_->now();
  begin_event_ = owner_->sim()->ScheduleAt(
      NextDataSlotAfter(owner_->now()), [this] {
        begin_event_ = {};
        BeginStep();
      });
}

// The first crossbar step: transmit the begin command, then let the FIFO
// walk plan the byte pops from the next data slot on.
void Forwarder::BeginStep() {
  if (finished_ || StalledByFlowControl()) {
    return;  // resume on OnThrottleChange
  }
  PortFifo& fifo = owner_->port(inport_).fifo();
  if (!fifo.HasHead()) {
    return;  // reset raced us; owner cleans up
  }
  owner_->SettlePort(inport_, /*inclusive=*/false);
  const PacketRef packet = fifo.head().packet;
  if (outports_.Test(kCpPort)) {
    owner_->NoteCpArrivalPort(inport_);
  }
  outports_.ForEach([&](PortNum p) { owner_->port(p).SendBegin(packet); });
  begun_ = true;
  Tick now = owner_->now();
  fifo.StartDrain(NextDataSlotAfter(now), now,
                  SteppingFrom(begin_set_, now,
                               owner_->sim()->events_processed()));
  owner_->RefreshPort(inport_);
}

void Forwarder::Replan(const PortFifo::Outlook& outlook) {
  if (!begun_ || finished_) {
    return;
  }
  if (!drain_only() &&
      !SamePlanFrom(plan_, outlook.pops_from, outlook.pops)) {
    plan_from_ = outlook.pops_from;
    plan_ = outlook.pops;
    outports_.ForEach([&](PortNum p) {
      owner_->port(p).SendBytes(plan_from_, plan_);
    });
  }
  if (owner_->port(inport_).fifo().drain_done()) {
    return;  // the end mark was popped this tick; its step is pending
  }
  ScheduleDone(outlook);
}

void Forwarder::ScheduleDone(const PortFifo::Outlook& outlook) {
  const PortFifo::Moment& done = outlook.done;
  if (done == done_at_) {
    return;
  }
  Simulator* sim = owner_->sim();
  sim->Cancel(done_event_);
  done_event_ = {};
  done_at_ = done;
  if (done.at == PortFifo::kNever) {
    return;
  }
  sim->ScheduleAnchored(done.at, done.anchor, done.stepping,
                        [this] {
                          done_event_ = {};
                          DoneStep();
                        },
                        &done_event_);
}

// The step that pops the head's end mark: send the end command and finish.
void Forwarder::DoneStep() {
  done_at_ = PortFifo::Moment{};
  owner_->SettlePort(inport_, /*inclusive=*/true);
  PortFifo& fifo = owner_->port(inport_).fifo();
  if (!fifo.drain_done()) {
    owner_->RefreshPort(inport_);
    return;
  }
  std::uint32_t bytes = fifo.head().bytes_consumed;
  EndFlags flags = fifo.TakeDoneHead();
  finished_ = true;
  outports_.ForEach(
      [&](PortNum p) { owner_->port(p).SendEnd(flags, bytes); });
  // Must be the last action: the owner destroys this forwarder.
  owner_->OnForwarderDone(inport_, drain_only(), bytes);
}

void Forwarder::OnThrottleChange() {
  outputs_allow_ = OutputsAllowTransmit();
  if (finished_) {
    return;
  }
  if (!begun_) {
    if (!StalledByFlowControl()) {
      ScheduleBeginStep();
    }
    return;
  }
  bool stalled = StalledByFlowControl();
  if (stalled == held_) {
    return;
  }
  owner_->SettlePort(inport_, /*inclusive=*/false);
  held_ = stalled;
  PortFifo& fifo = owner_->port(inport_).fifo();
  if (stalled) {
    fifo.HoldDrain();
  } else {
    Tick now = owner_->now();
    fifo.ResumeDrain(NextDataSlotAfter(now), now);
  }
  owner_->RefreshPort(inport_);
}

void Forwarder::Abort() {
  if (finished_) {
    return;
  }
  finished_ = true;
  Simulator* sim = owner_->sim();
  sim->Cancel(begin_event_);
  sim->Cancel(done_event_);
  if (begun_) {
    owner_->SettlePort(inport_, /*inclusive=*/false);
    PortFifo& fifo = owner_->port(inport_).fifo();
    std::uint32_t sent = fifo.HasHead() ? fifo.head().bytes_consumed : 0;
    fifo.StopDrain();
    // The packet loses its tail; downstream sees a truncated end.
    outports_.ForEach([&](PortNum p) {
      owner_->port(p).SendEnd(EndFlags{.truncated = true, .corrupted = true},
                              sent);
    });
  }
}

}  // namespace autonet
