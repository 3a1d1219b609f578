#include "src/obs/postmortem.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/obs/trace.h"

namespace autonet {
namespace obs {

namespace {

std::string FormatTimeNs(Tick ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "t=%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

bool IsPrecursorKind(FlightEventKind kind) {
  return kind == FlightEventKind::kLinkChange ||
         kind == FlightEventKind::kSkepticTrip;
}

// Each switch's own wave through one epoch, on its `<node>.reconfig` track:
// an `epoch <N>` span from the switch's epoch-join, holding one span per
// phase.  A phase begins where the switch's ring records an event that
// PhaseAfter maps to a later phase than the current one.  A table load ends
// the wave once the switch is installing its configuration; one before that
// is the one-hop bootstrap table and moves nothing.  A switch that never
// loads its configuration (the epoch was superseded) ends the epoch at the
// last event it recorded in it.
void AddSwitchWaves(const EpochTimeline& tl, const std::string& epoch_name,
                    TraceRecorder* tr) {
  std::map<std::string, std::vector<const FlightEvent*>> by_node;
  for (const PostMortemEvent& pe : tl.events) {
    by_node[pe.node].push_back(&pe.ev);  // ring order within a node
  }
  for (const auto& [node, events] : by_node) {
    auto join = std::find_if(events.begin(), events.end(),
                             [](const FlightEvent* ev) {
                               return ev->kind == FlightEventKind::kEpochJoin;
                             });
    if (join == events.end()) {
      continue;
    }
    // (phase, begin) in wave order.
    std::vector<std::pair<ReconfigPhase, Tick>> phases = {
        {ReconfigPhase::kTree, (*join)->time}};
    Tick end = events.back()->time;  // events are time-sorted
    for (auto it = join + 1; it != events.end(); ++it) {
      const FlightEvent& ev = **it;
      if (ev.kind == FlightEventKind::kRouteInstall) {
        if (phases.back().first == ReconfigPhase::kInstall) {
          end = ev.time;
          break;
        }
        continue;
      }
      std::optional<ReconfigPhase> next = PhaseAfter(ev);
      if (next.has_value() && *next > phases.back().first) {
        phases.emplace_back(*next, ev.time);
      }
    }
    const std::string track = node + ".reconfig";
    tr->AddSpan(track, epoch_name, (*join)->time, end);
    for (std::size_t i = 0; i < phases.size(); ++i) {
      tr->AddSpan(track, PhaseName(phases[i].first), phases[i].second,
                  i + 1 < phases.size() ? phases[i + 1].second : end);
    }
  }
}

}  // namespace

std::string FormatDurationNs(Tick ns) {
  if (ns < 0) {
    return "n/a";
  }
  char buf[64];
  if (ns < 10 * kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  } else if (ns < 10 * kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.1fus",
                  static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fms",
                  static_cast<double>(ns) / 1e6);
  }
  return buf;
}

std::string EpochTimeline::BlameChain() const {
  std::string out;
  if (root_cause.has_value()) {
    const FlightEvent& rc = root_cause->ev;
    out += "link ";
    out += rc.a != 0 ? "up" : "down";
    out += " at " + root_cause->node + " port " + std::to_string(rc.port);
    if (rc.detail[0] != '\0') {
      out += std::string(" (") + rc.detail + ")";
    }
    out += " " + FormatTimeNs(rc.time);
  }
  if (first_skeptic.has_value()) {
    const FlightEvent& sk = first_skeptic->ev;
    if (!out.empty()) {
      out += " -> ";
    }
    out += first_skeptic->node + " skeptic trip (";
    out += sk.a == 0 ? "status" : "conn";
    out += ", level " + std::to_string(sk.b) + ") " + FormatTimeNs(sk.time);
  }
  if (!trigger_node.empty()) {
    if (!out.empty()) {
      out += " -> ";
    }
    out += trigger_node + " trigger \"" + trigger_reason + "\" " +
           FormatTimeNs(trigger_time);
  }
  if (out.empty()) {
    out = "no trigger recorded";
  }
  if (!wavefront.empty()) {
    out += " -> " + std::to_string(wavefront.size()) + " switch" +
           (wavefront.size() == 1 ? "" : "es") + " joined";
    if (wavefront.size() > 1) {
      out += " within " +
             FormatDurationNs(wavefront.back().time - wavefront.front().time);
    }
  }
  return out;
}

PostMortem PostMortem::Build(const FlightRecorder& recorder) {
  // Per-switch chronological event lists and a uid -> node name map for
  // resolving causal tags.
  struct RingEvents {
    std::string node;
    Uid uid;
    std::vector<FlightEvent> events;
  };
  std::vector<RingEvents> rings;
  std::unordered_map<std::uint64_t, std::string> uid_to_node;
  recorder.Visit([&](const FlightRing& ring) {
    rings.push_back({ring.node(), ring.uid(), ring.Chronological()});
    uid_to_node[ring.uid().value()] = ring.node();
  });

  // Route installs are recorded by the fabric switch, which does not know
  // the reconfiguration epoch: attribute each to the latest epoch join at
  // or before it on the same ring.
  for (RingEvents& r : rings) {
    std::uint64_t current = 0;
    for (FlightEvent& ev : r.events) {
      if (ev.kind == FlightEventKind::kEpochJoin) {
        current = ev.epoch;
      } else if (ev.kind == FlightEventKind::kRouteInstall) {
        ev.epoch = current;
      }
    }
  }

  // Global order: (time, node name, ring position).  Ring position is
  // implied by a stable sort over per-ring chronological lists.
  std::vector<PostMortemEvent> all;
  for (const RingEvents& r : rings) {
    for (const FlightEvent& ev : r.events) {
      all.push_back({r.node, r.uid, ev});
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const PostMortemEvent& a, const PostMortemEvent& b) {
                     if (a.ev.time != b.ev.time) {
                       return a.ev.time < b.ev.time;
                     }
                     return a.node < b.node;
                   });

  // Group by epoch.
  std::map<std::uint64_t, EpochTimeline> by_epoch;
  for (const PostMortemEvent& pe : all) {
    EpochTimeline& tl = by_epoch[pe.ev.epoch];
    if (tl.events.empty()) {
      tl.epoch = pe.ev.epoch;
      tl.begin = pe.ev.time;
    }
    tl.end = pe.ev.time;
    tl.events.push_back(pe);
  }

  PostMortem pm;
  for (auto& [epoch, tl] : by_epoch) {
    // Trigger: the earliest kTrigger of the epoch (ties broken by the
    // deterministic global order).
    for (const PostMortemEvent& pe : tl.events) {
      if (pe.ev.kind == FlightEventKind::kTrigger) {
        tl.trigger_node = pe.node;
        tl.trigger_reason = pe.ev.detail;
        tl.trigger_time = pe.ev.time;
        break;
      }
    }

    // Blame chain: on the trigger switch's own ring, the nearest link
    // change and skeptic trip before (or at) the trigger.  These precursor
    // events carry the *previous* epoch's tag, so the scan runs over the
    // ring, not the epoch group.
    if (!tl.trigger_node.empty()) {
      for (const RingEvents& r : rings) {
        if (r.node != tl.trigger_node) {
          continue;
        }
        // Position of this epoch's trigger in the ring.
        std::size_t trig = r.events.size();
        for (std::size_t i = 0; i < r.events.size(); ++i) {
          if (r.events[i].kind == FlightEventKind::kTrigger &&
              r.events[i].epoch == epoch) {
            trig = i;
            break;
          }
        }
        for (std::size_t i = trig; i-- > 0;) {
          const FlightEvent& ev = r.events[i];
          if (!IsPrecursorKind(ev.kind)) {
            continue;
          }
          if (ev.kind == FlightEventKind::kLinkChange &&
              !tl.root_cause.has_value()) {
            tl.root_cause = PostMortemEvent{r.node, r.uid, ev};
          } else if (ev.kind == FlightEventKind::kSkepticTrip &&
                     !tl.first_skeptic.has_value()) {
            tl.first_skeptic = PostMortemEvent{r.node, r.uid, ev};
          }
          if (tl.root_cause.has_value() && tl.first_skeptic.has_value()) {
            break;
          }
        }
        break;
      }
    }

    // Wavefront and phase boundary marks.
    Tick last_compute = -1;
    Tick last_install = -1;
    for (const PostMortemEvent& pe : tl.events) {
      switch (pe.ev.kind) {
        case FlightEventKind::kEpochJoin: {
          WavefrontHop hop;
          hop.time = pe.ev.time;
          hop.node = pe.node;
          hop.port = pe.ev.port;
          if (!pe.ev.origin.IsNil()) {
            auto it = uid_to_node.find(pe.ev.origin.value());
            hop.from = it != uid_to_node.end() ? it->second
                                               : pe.ev.origin.ToString();
          }
          tl.wavefront.push_back(hop);
          break;
        }
        case FlightEventKind::kTermination:
          tl.termination_time = pe.ev.time;
          break;
        case FlightEventKind::kConfigCompute:
        case FlightEventKind::kConfigRecv:
          last_compute = std::max(last_compute, pe.ev.time);
          break;
        case FlightEventKind::kRouteInstall:
          last_install = std::max(last_install, pe.ev.time);
          ++tl.route_installs;
          break;
        default:
          break;
      }
    }
    tl.switches_joined = tl.wavefront.size();

    PhaseBreakdown& ph = tl.phases;
    if (tl.trigger_time >= 0) {
      const std::optional<PostMortemEvent>& cause =
          tl.first_skeptic.has_value() ? tl.first_skeptic : tl.root_cause;
      if (cause.has_value()) {
        ph[ReconfigPhase::kMonitor] = {cause->ev.time, tl.trigger_time};
      }
    }
    if (!tl.wavefront.empty()) {
      const Tick last_join = tl.wavefront.back().time;
      ph[ReconfigPhase::kTree] = {tl.wavefront.front().time, last_join};
      if (tl.termination_time >= 0) {
        ph[ReconfigPhase::kFanIn] = {last_join, tl.termination_time};
      }
    }
    if (tl.termination_time >= 0 && last_compute >= tl.termination_time) {
      ph[ReconfigPhase::kCompute] = {tl.termination_time, last_compute};
    }
    if (last_install >= 0 && last_compute >= 0) {
      ph[ReconfigPhase::kInstall] = {last_compute, last_install};
    }
    ph.total = tl.end - tl.begin;

    pm.epochs_.push_back(std::move(tl));
  }
  return pm;
}

const EpochTimeline* PostMortem::FindEpoch(std::uint64_t epoch) const {
  for (const EpochTimeline& tl : epochs_) {
    if (tl.epoch == epoch) {
      return &tl;
    }
  }
  return nullptr;
}

std::string PostMortem::RenderEpochText(const EpochTimeline& tl,
                                        bool with_events) const {
  std::string out;
  out += "=== epoch " + std::to_string(tl.epoch) + ": " +
         std::to_string(tl.switches_joined) + " switch" +
         (tl.switches_joined == 1 ? "" : "es") + " joined, " +
         std::to_string(tl.events.size()) + " events, span " +
         FormatDurationNs(tl.phases.total) + " ===\n";
  out += "  blame   : " + tl.BlameChain() + "\n";
  if (!tl.wavefront.empty()) {
    out += "  wavefront:\n";
    for (const WavefrontHop& hop : tl.wavefront) {
      out += "    " + FormatTimeNs(hop.time) + "  " + hop.node;
      if (hop.from.empty()) {
        out += "  (local trigger)";
      } else {
        out += "  <- " + hop.from + " (port " + std::to_string(hop.port) + ")";
      }
      out += "\n";
    }
  }
  out += "  phases  :";
  for (ReconfigPhase phase : kAllPhases) {
    out += std::string(phase == ReconfigPhase::kMonitor ? " " : " | ") +
           PhaseName(phase) + " " +
           FormatDurationNs(tl.phases[phase].duration());
  }
  out += "\n";
  if (tl.termination_time >= 0) {
    out += "  outcome : root terminated " + FormatTimeNs(tl.termination_time) +
           ", " + std::to_string(tl.route_installs) + " route install" +
           (tl.route_installs == 1 ? "" : "s") + "\n";
  } else {
    out += "  outcome : never terminated (superseded or still converging)\n";
  }
  if (with_events) {
    out += "  events  :\n";
    for (const PostMortemEvent& pe : tl.events) {
      const FlightEvent& ev = pe.ev;
      out += "    " + FormatTimeNs(ev.time) + "  " + pe.node + "  " +
             FlightEventKindName(ev.kind);
      if (ev.port >= 0) {
        out += " port=" + std::to_string(ev.port);
      }
      if (ev.kind == FlightEventKind::kPortTransition) {
        out += std::string(" ") + ev.from + "->" + ev.to;
      }
      if (ev.detail[0] != '\0') {
        out += std::string(" \"") + ev.detail + "\"";
      }
      if (!ev.origin.IsNil()) {
        auto blame = ev.origin.ToString();
        out += " origin=" + blame;
      }
      out += "\n";
    }
  }
  return out;
}

std::string PostMortem::RenderText(bool with_events) const {
  if (epochs_.empty()) {
    return "flight recorder empty (was it armed?)\n";
  }
  std::string out;
  for (const EpochTimeline& tl : epochs_) {
    out += RenderEpochText(tl, with_events);
  }
  return out;
}

std::string PostMortem::ToChromeTraceJson() const {
  TraceRecorder tr;
  for (const EpochTimeline& tl : epochs_) {
    const std::string epoch_name = "epoch " + std::to_string(tl.epoch);
    // The monitor phase begins on the previous epoch's ring (the skeptic
    // trip that gated the trigger), so the epoch span is widened to keep
    // the phase spans nested inside it.
    const PhaseWindow& monitor = tl.phases[ReconfigPhase::kMonitor];
    Tick begin = monitor.recorded() ? std::min(tl.begin, monitor.begin)
                                    : tl.begin;
    tr.AddSpan("reconfig", epoch_name, begin, tl.end);
    for (ReconfigPhase phase : kAllPhases) {
      const PhaseWindow& w = tl.phases[phase];
      if (w.recorded()) {
        tr.AddSpan("reconfig.phase", PhaseName(phase), w.begin, w.end);
      }
    }
    AddSwitchWaves(tl, epoch_name, &tr);
    for (const PostMortemEvent& pe : tl.events) {
      std::string name = FlightEventKindName(pe.ev.kind);
      if (pe.ev.detail[0] != '\0') {
        name += std::string(" ") + pe.ev.detail;
      }
      tr.Instant(pe.node + ".flight", std::move(name), pe.ev.time);
    }
  }
  return tr.ToChromeTraceJson();
}

}  // namespace obs
}  // namespace autonet
