#include "src/fabric/port_fifo.h"

#include <algorithm>
#include <utility>

#include "src/link/slots.h"

namespace autonet {

namespace {

// A stepping restarted inside the walk (after an underflow, or on resume)
// has no dispatched first step to order it by; it sorts last.
constexpr std::uint64_t kUnordered = std::numeric_limits<std::uint64_t>::max();

}  // namespace

PortFifo::PortFifo(std::size_t capacity) : capacity_(capacity) {}

void PortFifo::PushBegin(const PacketRef& packet, SpanRef span) {
  PacketRecord record;
  record.packet = packet;
  record.capture_addr = packet->dest;
  if (span != nullptr) {
    record.next = span->first;
  }
  record.span = std::move(span);
  records_.push_back(std::move(record));
  receiving_ = true;
}

// Symbols entering outside the span walk (staging, an abort) wake an
// underflowed drain at the next data slot, as any arrival does.
void PortFifo::WakeDrain() {
  if (drain_.active && drain_.waiting && !drain_.done) {
    drain_.waiting = false;
    drain_.next = NextDataSlotAfter(settled_);
    drain_.chain = settled_;
    drain_.stepping = SteppingFrom(settled_, drain_.next, kUnordered);
  }
}

void PortFifo::PushBytes(std::uint32_t n) {
  if (!receiving_) {
    return;
  }
  WakeDrain();
  PacketRecord& record = records_.back();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (occupancy_ >= capacity_) {
      ++overflow_count_;
      record.corrupted = true;  // a lost byte destroys the packet
    } else {
      ++record.bytes_entered;
      Account(+1);
    }
    arrival_hwm_ = std::max(arrival_hwm_, occupancy_);
  }
}

void PortFifo::PushEnd(EndFlags flags) {
  if (!receiving_) {
    return;
  }
  receiving_ = false;
  WakeDrain();
  PacketRecord& record = records_.back();
  record.span = nullptr;
  record.end_in_fifo = true;
  record.corrupted = record.corrupted || flags.corrupted;
  record.truncated = record.truncated || flags.truncated;
  Account(+1);  // the end mark occupies a FIFO slot
  arrival_hwm_ = std::max(arrival_hwm_, occupancy_);
}

SpanRef PortFifo::AbortIncoming(std::uint32_t* stray_from) {
  if (!receiving_) {
    return nullptr;
  }
  SpanRef span = records_.back().span;
  *stray_from = records_.back().next;
  std::size_t hwm = arrival_hwm_;
  PushEnd(EndFlags{.truncated = true, .corrupted = true});
  arrival_hwm_ = hwm;  // not an arrival: callers note activity themselves
  return span;
}

bool PortFifo::HeadCaptureReady() const {
  if (records_.empty()) {
    return false;
  }
  const PacketRecord& record = records_.front();
  if (record.bytes_consumed > 0) {
    return false;  // already being forwarded
  }
  return record.bytes_entered >= 2 || record.end_in_fifo;
}

void PortFifo::StartDrain(Tick first_step, Tick chain,
                          const Simulator::StepKey& stepping) {
  drain_ = Drain{};
  drain_.active = true;
  drain_.next = first_step;
  drain_.chain = chain;
  drain_.stepping = stepping;
}

void PortFifo::HoldDrain() { drain_.held = true; }

void PortFifo::ResumeDrain(Tick next_step, Tick chain) {
  drain_.held = false;
  drain_.waiting = false;
  drain_.next = next_step;
  drain_.chain = chain;
  drain_.stepping = SteppingFrom(chain, next_step, kUnordered);
}

void PortFifo::StopDrain() { drain_ = Drain{}; }

EndFlags PortFifo::TakeDoneHead() {
  PacketRecord& record = records_.front();
  EndFlags flags{.truncated = record.truncated, .corrupted = record.corrupted};
  records_.erase(records_.begin());
  drain_ = Drain{};
  return flags;
}

void PortFifo::Clear() {
  records_.clear();
  occupancy_ = 0;
  receiving_ = false;
  drain_ = Drain{};
}

// --- the walk ---------------------------------------------------------------

// Look()'s recorder: the first instant of each observed kind, and the
// drain's byte pops as runs.
struct PortFifo::Observer {
  bool want_ready = false;
  std::uint32_t stage_need = 0;
  Outlook out;

  // Records `m` at `t` unless already seen.
  static void Note(Moment* m, Tick t, Tick anchor,
                   const Simulator::StepKey& stepping) {
    if (m->at == kNever) {
      *m = Moment{t, anchor, stepping};
    }
  }

  // `n` pops from `offset` on, in consecutive data slots from `index`.
  void Pops(std::uint32_t offset, std::uint32_t n, std::int64_t index,
            const Drain& d) {
    if (!out.pops.empty()) {
      ByteRun& last = out.pops.back();
      if (last.end() == offset &&
          last.index + static_cast<std::int64_t>(last.count) == index) {
        last.count += n;
        return;
      }
    }
    out.pops.push_back(ByteRun{offset, n, index, d.stepping});
  }
};

namespace {

const ByteRun* RunHolding(const Span& span, std::uint32_t k) {
  for (const ByteRun& run : span.runs) {
    if (k < run.end()) {
      return &run;
    }
  }
  return nullptr;
}

// Offsets of `run` whose arrival (slot + delay) is before `limit` (or at
// it, if `inclusive`): returns the first offset not included.
std::uint32_t ArrivedBy(const ByteRun& run, Tick delay, Tick limit,
                        bool inclusive) {
  if (limit == PortFifo::kNever) {
    return run.end();
  }
  std::int64_t n =
      DataSlotsBefore(limit - delay + (inclusive ? 1 : 0)) - run.index;
  n = std::clamp<std::int64_t>(n, 0, run.count);
  return run.offset + static_cast<std::uint32_t>(n);
}

// Steps on consecutive data slots from `next` that fire before `limit` (or
// at it, if `inclusive`).
std::int64_t StepsBy(Tick next, Tick limit, bool inclusive) {
  if (limit == PortFifo::kNever) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return std::max<std::int64_t>(
      0, DataSlotsBefore(limit + (inclusive ? 1 : 0)) - DataSlotsBefore(next));
}

}  // namespace

PortFifo::WalkState PortFifo::Snapshot() const {
  WalkState w;
  w.occupancy = occupancy_;
  w.half = flow_half_;
  w.receiving = receiving_;
  w.drain = drain_;
  w.max_occupancy = max_occupancy_;
  w.arrival_hwm = arrival_hwm_;
  if (!records_.empty()) {
    auto load = [](const PacketRecord& r) {
      return Progress{r.next, r.bytes_entered, r.bytes_consumed,
                      r.end_in_fifo, false};
    };
    w.head = load(records_.front());
    if (records_.size() > 1) {
      w.tail = load(records_.back());
    }
  }
  return w;
}

void PortFifo::Commit(const WalkState& w) {
  occupancy_ = w.occupancy;
  flow_half_ = w.half;
  drain_ = w.drain;
  max_occupancy_ = w.max_occupancy;
  arrival_hwm_ = w.arrival_hwm;
  overflow_count_ += w.overflows;
  popped_total_ += w.popped;
  underflow_total_ += w.underflows;
  if (records_.empty()) {
    receiving_ = w.receiving;
    return;
  }
  PacketRecord& tail = records_.back();
  const Progress& tp = records_.size() > 1 ? w.tail : w.head;
  if (tail.span != nullptr) {
    // Damage drawn for the bytes that arrived in this window.
    std::uint32_t damaged = tail.span->CorruptIn(tail.next, tp.next);
    corrupt_total_ += damaged;
    tail.corrupted = tail.corrupted || damaged > 0;
  }
  auto store = [](PacketRecord& r, const Progress& p) {
    r.next = p.next;
    r.bytes_entered = p.entered;
    r.bytes_consumed = p.consumed;
    r.corrupted = r.corrupted || p.lost_any;
    if (p.end && !r.end_in_fifo) {
      r.end_in_fifo = true;
      if (r.span != nullptr) {
        r.corrupted = r.corrupted || r.span->flags.corrupted;
        r.truncated = r.truncated || r.span->flags.truncated;
      }
    }
    if (r.end_in_fifo) {
      r.span = nullptr;
    }
  };
  store(records_.front(), w.head);
  if (records_.size() > 1) {
    store(tail, w.tail);
  }
  receiving_ = w.receiving;
}

void PortFifo::Walk(WalkState& w, Tick limit, bool inclusive,
                    Observer* obs) const {
  if (records_.empty()) {
    return;
  }
  const std::size_t half_line = capacity_ / 2;
  const bool single = records_.size() == 1;
  const PacketRecord& tail_rec = records_.back();
  const Span* span = tail_rec.span.get();
  Progress& head = w.head;
  Progress& tail = single ? w.head : w.tail;
  for (;;) {
    if (Skip(w, limit, inclusive, obs)) {
      continue;
    }
    Tick ta = kNever;
    bool ta_end = false;
    if (w.receiving && span != nullptr) {
      if (tail.next < span->planned()) {
        ta = span->ArrivalOf(tail.next);
      } else if (span->ended) {
        ta = span->end_at + span->delay;
        ta_end = true;
      }
    }
    Tick ts = kNever;
    const Drain& d = w.drain;
    if (d.active && !d.held && !d.waiting && !d.done) {
      ts = d.next;
    }
    Tick t = std::min(ta, ts);
    if (t == kNever || t > limit || (t == limit && !inclusive)) {
      return;
    }
    // Same-tick order: an arrival fires first if its transmission was set
    // going no later than the drain step was.
    bool arrival = ta < ts || (ta == ts && ta - span->delay <= d.chain);
    if (arrival) {
      if (ta_end) {
        tail.end = true;
        w.receiving = false;
        ++w.occupancy;
      } else {
        ++tail.next;
        if (w.occupancy >= capacity_) {
          ++w.overflows;
          tail.lost_any = true;
        } else {
          bool was_half = w.occupancy > half_line;
          ++tail.entered;
          ++w.occupancy;
          bool is_half = w.occupancy > half_line;
          if (is_half != was_half && is_half != w.half) {
            w.half = is_half;
            if (obs != nullptr) {
              Observer::Note(&obs->out.flip, t, t - span->delay,
                             RunHolding(*span, tail.next - 1)->stepping);
            }
          }
        }
      }
      w.max_occupancy = std::max(w.max_occupancy, w.occupancy);
      w.arrival_hwm = std::max(w.arrival_hwm, w.occupancy);
      // (An end mark's own arrival event notices a runt becoming ready.)
      if (obs != nullptr && obs->want_ready && single && !ta_end &&
          head.consumed == 0 && head.entered >= 2) {
        Observer::Note(&obs->out.ready, t, t - span->delay,
                       RunHolding(*span, tail.next - 1)->stepping);
      }
      if (d.active && d.waiting && !d.done) {
        w.drain.waiting = false;
        w.drain.next = NextDataSlotAfter(t);
        w.drain.chain = t;
        w.drain.stepping = SteppingFrom(t, w.drain.next, kUnordered);
      }
      continue;
    }
    // A drain step.
    bool popped_end = false;
    if (head.entered > head.consumed) {
      if (obs != nullptr) {
        obs->Pops(head.consumed, 1, DataSlotsBefore(t), d);
      }
      ++head.consumed;
      ++w.popped;
    } else if (head.end) {
      popped_end = true;
    } else {
      ++w.underflows;  // nothing buffered mid-packet: wait for bytes
      w.drain.waiting = true;
      continue;
    }
    --w.occupancy;
    bool is_half = w.occupancy > half_line;
    if (is_half != w.half) {
      w.half = is_half;
      if (obs != nullptr) {
        Observer::Note(&obs->out.flip, t, d.chain, d.stepping);
      }
    }
    if (obs != nullptr && obs->stage_need != 0 &&
        w.occupancy + obs->stage_need <= capacity_) {
      Observer::Note(&obs->out.stage, t, d.chain, d.stepping);
    }
    if (popped_end) {
      w.drain.done = true;
      if (obs != nullptr) {
        Observer::Note(&obs->out.done, t, d.chain, d.stepping);
      }
      continue;
    }
    w.drain.chain = t;
    w.drain.next = NextDataSlotAfter(t);
  }
}

// Advances the walk over a stretch where every symbol does the same thing,
// in O(1): arrivals into a FIFO nobody drains, a drain emptying a backlog
// while nothing arrives, or a drain keeping pace behind a packet that is
// still arriving (cut-through).  Each stretch stops short of anything the
// per-symbol rules or an observer would treat differently — a lost byte, an
// underflow, capture-readiness, the end of the arrival run, and a half-full
// transition while Look() still watches for the first one — which the
// symbol-by-symbol walk then handles.  Unwatched transitions (Settle, or
// Look() after its first flip) are crossed: only the stretch's end state
// matters, and the flow-control state there follows from the occupancy.
// Returns false if no stretch applies.
bool PortFifo::Skip(WalkState& w, Tick limit, bool inclusive,
                    Observer* obs) const {
  const std::size_t half_line = capacity_ / 2;
  const bool single = records_.size() == 1;
  const Span* span = records_.back().span.get();
  Progress& head = w.head;
  Progress& tail = single ? w.head : w.tail;
  Drain& d = w.drain;
  const bool stepping = d.active && !d.held && !d.waiting && !d.done;
  const ByteRun* run = nullptr;
  if (w.receiving && span != nullptr && tail.next < span->planned()) {
    run = RunHolding(*span, tail.next);
  }
  const std::int64_t step_index = DataSlotsBefore(d.next);
  const bool watch_flip = obs != nullptr && obs->out.flip.at == kNever;
  const bool was_below = w.occupancy <= half_line;
  // The flow-control state at a stretch's end: a pop re-derives it, and an
  // arrival raises it only when crossing the line, so after any pop (or an
  // upward crossing) it is the final occupancy's; otherwise unchanged.
  auto settle_half = [&](bool popped) {
    if (popped || (was_below && w.occupancy > half_line)) {
      w.half = w.occupancy > half_line;
    }
  };

  if (run != nullptr && !stepping && !(d.active && d.waiting && !d.done)) {
    // Arrivals only: occupancy climbs one per byte.
    std::int64_t n = ArrivedBy(*run, span->delay, limit, inclusive);
    n -= tail.next;
    if (watch_flip && was_below) {
      n = std::min<std::int64_t>(n, half_line - w.occupancy);
    }
    n = std::min<std::int64_t>(
        n, static_cast<std::int64_t>(capacity_) -
               static_cast<std::int64_t>(w.occupancy));
    if (obs != nullptr && obs->want_ready && single && head.consumed == 0 &&
        !head.end && head.entered < 2) {
      n = 0;  // capture-readiness is observed symbol by symbol
    }
    if (n < 2) {
      return false;
    }
    std::uint32_t k = tail.next + static_cast<std::uint32_t>(n);
    tail.next = k;
    tail.entered += static_cast<std::uint32_t>(n);
    w.occupancy += static_cast<std::size_t>(n);
    settle_half(false);
    w.max_occupancy = std::max(w.max_occupancy, w.occupancy);
    w.arrival_hwm = std::max(w.arrival_hwm, w.occupancy);
    return true;
  }
  if (!stepping || head.entered <= head.consumed) {
    return false;
  }
  // The next arrival: a byte, or else the end mark.
  Tick ta = kNever;
  if (run != nullptr) {
    ta = run->SlotOf(tail.next) + span->delay;
  } else if (w.receiving && span != nullptr && span->ended) {
    ta = span->end_at + span->delay;
  }

  if (run != nullptr && span->delay % kSlotNs != 0 && d.next < ta) {
    // The drain keeps pace with arrivals: either it pops the same arrival
    // run it trails by `lag` data slots (cut-through), or it pops a packet
    // already buffered ahead of the one arriving.  The occupancy right
    // after the arrival of a byte sent in data slot j is base - w(j),
    // where w(j) counts the data slots in (slot j, slot j + delay] — q of
    // them, or q - 1 when a flow slot falls in that window.
    const Tick delay = span->delay;
    const std::int64_t q = delay / kSlotNs;
    if (q >= kFlowSlotPeriod - 1) {
      return false;
    }
    std::uint32_t stop =
        std::min(run->end() - 1, ArrivedBy(*run, delay, limit, inclusive));
    if (single) {
      // With lag * 80 ns beyond the propagation delay every pop finds its
      // byte.
      if (head.consumed < run->offset ||
          (step_index - (run->index + (head.consumed - run->offset))) *
                  kSlotNs <=
              delay) {
        return false;
      }
    } else {
      // Pops stay within the head packet's buffered bytes.
      std::int64_t budget = head.entered - head.consumed;
      stop = std::min(stop, ArrivedBy(*run, delay,
                                      DataSlotStart(step_index + budget),
                                      false));
    }
    if (stop <= tail.next + 1) {
      return false;
    }
    std::uint32_t n_arrive = stop - tail.next;
    std::int64_t j0 = run->index + (tail.next - run->offset);
    std::int64_t j1 = j0 + n_arrive - 1;
    std::int64_t base = static_cast<std::int64_t>(w.occupancy) - tail.next +
                        step_index + run->offset - run->index;
    // A flow slot lands in the window of some j in [j0, j1] iff some
    // j mod 255 reaches 255 - q.
    bool dip = false;
    if (q > 0) {
      std::int64_t r0 = j0 % (kFlowSlotPeriod - 1);
      std::int64_t r1 = j1 % (kFlowSlotPeriod - 1);
      std::int64_t top = (j1 - j0 >= kFlowSlotPeriod - 2 || r1 < r0)
                             ? kFlowSlotPeriod - 2
                             : r1;
      dip = top >= kFlowSlotPeriod - 1 - q;
    }
    std::int64_t peak = base - q + (dip ? 1 : 0);
    std::int64_t trough = base - q - 2;  // lowest after any pop
    const auto line = static_cast<std::int64_t>(half_line);
    if (peak > static_cast<std::int64_t>(capacity_) ||
        (watch_flip &&
         ((!w.half && peak > line) || (w.half && trough <= line)))) {
      return false;
    }
    Tick t_last = run->SlotOf(stop - 1) + delay;
    std::int64_t n_step = DataSlotsBefore(t_last) - step_index;
    tail.next = stop;
    tail.entered += n_arrive;
    if (n_step > 0) {
      auto n = static_cast<std::uint32_t>(n_step);
      if (obs != nullptr) {
        obs->Pops(head.consumed, n, step_index, d);
      }
      head.consumed += n;
      w.popped += n;
      d.next = DataSlotStart(step_index + n_step);
      d.chain = DataSlotStart(step_index + n_step - 1);
    }
    w.occupancy = static_cast<std::size_t>(
        static_cast<std::int64_t>(w.occupancy) + n_arrive - n_step);
    settle_half(n_step > 0);
    w.max_occupancy = std::max<std::size_t>(w.max_occupancy, peak);
    w.arrival_hwm = std::max<std::size_t>(w.arrival_hwm, peak);
    return true;
  }

  // Draining a backlog ahead of the next arrival.
  std::int64_t n = std::min(StepsBy(d.next, limit, inclusive),
                            StepsBy(d.next, ta, false));
  n = std::min<std::int64_t>(n, head.entered - head.consumed);
  const auto occ = static_cast<std::int64_t>(w.occupancy);
  const auto line = static_cast<std::int64_t>(half_line);
  if (watch_flip) {
    if (w.half) {
      n = std::min(n, occ - line - 1);  // the pop reaching the line flips
    } else if (occ > line + 1) {
      return false;  // the next pop would raise the flow-control state
    }
  }
  if (obs != nullptr && obs->stage_need != 0 && obs->out.stage.at == kNever) {
    n = std::min<std::int64_t>(
        n, static_cast<std::int64_t>(capacity_) - obs->stage_need - occ);
  }
  if (n < 2) {
    return false;
  }
  auto count = static_cast<std::uint32_t>(n);
  if (obs != nullptr) {
    obs->Pops(head.consumed, count, step_index, d);
  }
  head.consumed += count;
  w.popped += count;
  w.occupancy -= count;
  settle_half(true);
  d.next = DataSlotStart(step_index + n);
  d.chain = DataSlotStart(step_index + n - 1);
  return true;
}

void PortFifo::Settle(Tick t, bool inclusive) {
  if (t < settled_) {
    return;
  }
  WalkState w = Snapshot();
  Walk(w, t, inclusive, nullptr);
  Commit(w);
  settled_ = t;
}

PortFifo::Outlook PortFifo::Look(bool want_ready,
                                 std::uint32_t stage_need) const {
  Observer obs;
  obs.want_ready = want_ready;
  obs.stage_need = stage_need;
  if (!records_.empty()) {
    obs.out.pops_from = records_.front().bytes_consumed;
  }
  if (receiving_) {
    const Span* span = records_.back().span.get();
    if (span != nullptr && !span->ended &&
        span->planned() > records_.back().next) {
      const ByteRun& last = span->runs.back();
      Tick sent = last.SlotOf(last.end() - 1);
      obs.out.tail = Moment{sent + span->delay, sent, last.stepping};
    }
  }
  WalkState w = Snapshot();
  Walk(w, kNever, true, &obs);
  return std::move(obs.out);
}

}  // namespace autonet
