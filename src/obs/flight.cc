#include "src/obs/flight.h"

namespace autonet {
namespace obs {

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kSkepticTrip:
      return "skeptic-trip";
    case FlightEventKind::kPortTransition:
      return "port-transition";
    case FlightEventKind::kLinkChange:
      return "link-change";
    case FlightEventKind::kTrigger:
      return "trigger";
    case FlightEventKind::kEpochJoin:
      return "epoch-join";
    case FlightEventKind::kEpochHeld:
      return "epoch-held";
    case FlightEventKind::kEpochRejected:
      return "epoch-rejected";
    case FlightEventKind::kPositionChange:
      return "position-change";
    case FlightEventKind::kReportSend:
      return "report-send";
    case FlightEventKind::kReportRecv:
      return "report-recv";
    case FlightEventKind::kTermination:
      return "termination";
    case FlightEventKind::kConfigRecv:
      return "config-recv";
    case FlightEventKind::kConfigCompute:
      return "config-compute";
    case FlightEventKind::kRouteInstall:
      return "route-install";
    case FlightEventKind::kEpochResync:
      return "epoch-resync";
    case FlightEventKind::kAdversary:
      return "adversary";
  }
  return "unknown";
}

const char* PhaseName(ReconfigPhase phase) {
  static constexpr const char* kNames[kReconfigPhaseCount] = {
      "monitor", "tree", "fanin", "compute", "install"};
  return kNames[static_cast<std::size_t>(phase)];
}

bool ParsePhase(std::string_view name, ReconfigPhase* out) {
  for (ReconfigPhase phase : kAllPhases) {
    if (name == PhaseName(phase)) {
      *out = phase;
      return true;
    }
  }
  return false;
}

std::optional<ReconfigPhase> PhaseAfter(const FlightEvent& ev) {
  switch (ev.kind) {
    case FlightEventKind::kEpochJoin:
      return ReconfigPhase::kTree;
    case FlightEventKind::kReportSend:
    case FlightEventKind::kReportRecv:
      return ReconfigPhase::kFanIn;
    case FlightEventKind::kTermination:
    case FlightEventKind::kConfigRecv:
      return ReconfigPhase::kCompute;
    case FlightEventKind::kConfigCompute:
      return ReconfigPhase::kInstall;
    case FlightEventKind::kRouteInstall:
      return ev.a != 0 ? ReconfigPhase::kInstall : ReconfigPhase::kTree;
    default:
      return std::nullopt;
  }
}

std::vector<FlightEvent> FlightRing::Chronological() const {
  std::vector<FlightEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = head_; i < events_.size(); ++i) {
    out.push_back(events_[i]);
  }
  for (std::size_t i = 0; i < head_; ++i) {
    out.push_back(events_[i]);
  }
  return out;
}

void FlightRecorder::Arm(std::size_t ring_capacity) {
  armed_ = true;
  ring_capacity_ = ring_capacity == 0 ? 1 : ring_capacity;
  for (auto& [name, ring] : rings_) {
    ring->Reset(ring_capacity_);
  }
}

FlightRing* FlightRecorder::Ring(const std::string& node, Uid uid) {
  auto it = rings_.find(node);
  if (it != rings_.end()) {
    return it->second.get();
  }
  auto ring = std::unique_ptr<FlightRing>(
      new FlightRing(node, uid, &armed_, ring_capacity_));
  FlightRing* raw = ring.get();
  rings_.emplace(node, std::move(ring));
  return raw;
}

const FlightRing* FlightRecorder::Find(const std::string& node) const {
  auto it = rings_.find(node);
  return it == rings_.end() ? nullptr : it->second.get();
}

}  // namespace obs
}  // namespace autonet
