// The reconfiguration flight recorder: a bounded per-switch ring buffer of
// causally-tagged control-plane events (skeptic trips, port state
// transitions, epoch adoption with the triggering message's origin,
// topology-report traffic, route installs), stamped with sim time.
//
// The recorder is DISARMED by default and recording is a single predicted
// branch per call site, so instrumented components can record
// unconditionally without perturbing timing, the event log, or the metric
// registry — the determinism goldens and chaos fingerprints are unchanged
// whether a recorder is armed or not, because recording only writes to the
// recorder's own storage.
//
// Each switch owns one ring (keyed by node name, shared by the Autopilot,
// its ReconfigEngine, and the fabric Switch).  Rings are fixed-capacity and
// wrap: `total` counts every event offered, `depth` what is retained, and
// `truncated = total - depth` what the wrap discarded — the accounting the
// SRP GetStats reply and netmon surface.
//
// The post-mortem reconstructor (src/obs/postmortem.h) stitches the rings
// into a network-wide per-epoch timeline.  ReconfigPhase is the one
// vocabulary for the phases of a reconfiguration wave: the post-mortem
// breakdown, the Perfetto export and the adversary's phase-snipe all name
// phases with it, and PhaseAfter is the one map from flight events to
// phases.
#ifndef SRC_OBS_FLIGHT_H_
#define SRC_OBS_FLIGHT_H_

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"

namespace autonet {
namespace obs {

enum class FlightEventKind : std::uint8_t {
  kSkepticTrip = 0,     // a skeptic was penalized; a=skeptic (0 status,
                        // 1 connectivity), b=holddown level after
  kPortTransition,      // port state machine moved; from/to are state names
  kLinkChange,          // usable-link-set change seen by the engine; a=up
  kTrigger,             // local reconfiguration trigger; epoch=new epoch
  kEpochJoin,           // epoch adopted; origin=sender uid (nil: local),
                        // port=inport (-1: local trigger)
  kEpochHeld,           // implausible forward jump held for confirmation
  kEpochRejected,       // forward jump beyond kMaxEpochJump dropped
  kPositionChange,      // tree position improved; a=level, origin=root uid
  kReportSend,          // stable: subtree report sent to parent; a=#records
  kReportRecv,          // topology report received; a=#records
  kTermination,         // root detected termination; a=#switches
  kConfigRecv,          // configuration received from parent
  kConfigCompute,       // route computation queued on the CP
  kRouteInstall,        // forwarding table loaded; a=1 full config, 0 one-hop
  kEpochResync,         // epoch register concluded corrupt; rejoined just
                        // above the neighbors' epoch
  kAdversary,           // an adversary move against this switch; detail
                        // names the strategy (src/adversary/)
};

// Short stable name ("epoch-join", "route-install", ...) for rendering.
const char* FlightEventKindName(FlightEventKind kind);

// The phases of one reconfiguration wave, in the order a wave passes
// through them: skeptic hold-down before the trigger, the epoch-join
// wavefront that builds the spanning tree, topology-report fan-in to the
// root, route computation, and forwarding-table installation.
enum class ReconfigPhase : std::uint8_t {
  kMonitor,
  kTree,
  kFanIn,
  kCompute,
  kInstall,
};
inline constexpr ReconfigPhase kAllPhases[] = {
    ReconfigPhase::kMonitor, ReconfigPhase::kTree, ReconfigPhase::kFanIn,
    ReconfigPhase::kCompute, ReconfigPhase::kInstall};
inline constexpr std::size_t kReconfigPhaseCount = std::size(kAllPhases);

// "monitor", "tree", "fanin", "compute", "install": the tokens the adversary
// grammar, the post-mortem text and the Perfetto export share.
const char* PhaseName(ReconfigPhase phase);
// Reads a PhaseName token; false for anything else.
bool ParsePhase(std::string_view name, ReconfigPhase* out);

struct FlightEvent {
  Tick time = 0;
  std::uint64_t epoch = 0;
  Uid origin;           // causal tag: message sender / neighbor uid
  std::uint64_t a = 0;  // kind-specific, see FlightEventKind
  std::uint64_t b = 0;
  std::int16_t port = -1;
  FlightEventKind kind = FlightEventKind::kTrigger;
  // Static-lifetime strings only (trigger reasons, port state names): a
  // record never allocates.
  const char* detail = "";
  const char* from = "";
  const char* to = "";
};

// The phase a switch is in once its ring has recorded `ev`: epoch-join
// starts the tree phase, a report sent or received the fan-in, root
// termination or a received configuration the computation, and the queued
// route computation and the full table load the installation.  The one-hop
// bootstrap table JoinEpoch loads (route-install with a=0) is part of the
// tree phase.  Other kinds do not move a switch between phases (nullopt).
std::optional<ReconfigPhase> PhaseAfter(const FlightEvent& ev);

class FlightRecorder;

// One switch's ring.  Components keep the handle returned by
// FlightRecorder::Ring and call Record unconditionally; a disarmed
// recorder makes Record a load and a branch.
class FlightRing {
 public:
  void Record(const FlightEvent& e) {
    if (!*armed_) {
      return;
    }
    if (events_.size() < capacity_) {
      events_.push_back(e);
    } else {
      events_[head_] = e;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    }
    ++total_;
  }

  // True while the owning recorder is armed; call sites that assemble a
  // multi-field event can skip the work entirely when disarmed.
  bool armed() const { return *armed_; }

  const std::string& node() const { return node_; }
  Uid uid() const { return uid_; }
  // Events currently retained / ever offered / discarded by ring wrap.
  std::size_t depth() const { return events_.size(); }
  std::uint64_t total() const { return total_; }
  std::uint64_t truncated() const { return total_ - events_.size(); }

  // Retained events, oldest first (unwraps the ring).
  std::vector<FlightEvent> Chronological() const;

  // The newest retained event, or nullptr when empty — the cheap ring-tail
  // peek for live consumers (the chaos adversary polls this every few
  // milliseconds; Chronological() copies the whole ring).
  const FlightEvent* Last() const {
    if (events_.empty()) {
      return nullptr;
    }
    std::size_t newest = events_.size() < capacity_
                             ? events_.size() - 1
                             : (head_ == 0 ? capacity_ - 1 : head_ - 1);
    return &events_[newest];
  }

 private:
  friend class FlightRecorder;
  FlightRing(std::string node, Uid uid, const bool* armed,
             std::size_t capacity)
      : node_(std::move(node)), uid_(uid), armed_(armed),
        capacity_(capacity) {}

  void Reset(std::size_t capacity) {
    events_.clear();
    head_ = 0;
    total_ = 0;
    capacity_ = capacity;
  }

  std::string node_;
  Uid uid_;
  const bool* armed_;  // the owning recorder's armed flag
  std::size_t capacity_;
  std::size_t head_ = 0;       // oldest retained event once wrapped
  std::uint64_t total_ = 0;
  std::vector<FlightEvent> events_;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  // Arms recording and resets every ring to `ring_capacity`.  Disarm stops
  // recording but keeps the rings for post-mortem reading.
  void Arm(std::size_t ring_capacity = kDefaultRingCapacity);
  void Disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  // Create-or-get the ring for a node (never null; the recorder owns it,
  // and it outlives component restarts so a rebooted switch keeps its
  // history).
  FlightRing* Ring(const std::string& node, Uid uid);
  const FlightRing* Find(const std::string& node) const;

  // Visits rings in node-name order (deterministic).
  template <typename Fn>
  void Visit(Fn&& fn) const {
    for (const auto& [name, ring] : rings_) {
      fn(*ring);
    }
  }

  std::size_t ring_count() const { return rings_.size(); }

 private:
  bool armed_ = false;
  std::size_t ring_capacity_ = kDefaultRingCapacity;
  // std::map: stable handle addresses and deterministic iteration order.
  std::map<std::string, std::unique_ptr<FlightRing>> rings_;
};

}  // namespace obs
}  // namespace autonet

#endif  // SRC_OBS_FLIGHT_H_
