// The metric registry: named Counter/Gauge/Histogram instruments under
// hierarchical dot-separated names (`switch.<name>.fabric.fifo_hwm_bytes`,
// `autopilot.reconfig.epoch_ms`).  Components register instruments once at
// construction and keep the returned handle; updating through a handle is a
// plain field update, cheap enough for per-packet paths in the simulator.
//
// One registry serves a whole simulation (it hangs off the Simulator), so a
// snapshot is network-wide; per-node subsets are selected by name prefix —
// that is what the SRP GetStats query serves remotely.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>
#include <string_view>

#include "src/common/histogram.h"

namespace autonet {
namespace obs {

enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Last-written level (FIFO occupancy, queue depth, epoch number).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  // High-water-mark update: keeps the largest value ever set.
  void SetMax(double v) { value_ = std::max(value_, v); }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricRegistry {
 public:
  struct Entry {
    std::string name;
    MetricKind kind;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  // Registration and lookup: the first call under a name creates the
  // instrument; later calls return the same handle.  A name registered
  // under a different kind returns nullptr (the caller's bug; surfaced in
  // tests rather than silently aliased).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  const Entry* Find(const std::string& name) const;
  std::size_t size() const { return entries_.size(); }

  // Visits entries whose name starts with `prefix` in lexicographic order.
  void Visit(const std::string& prefix,
             const std::function<void(const Entry&)>& fn) const;

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, min,
  // max, mean, sum, p50, p99}}}, restricted to names under `prefix`.
  std::string SnapshotJson(const std::string& prefix = "") const;

  // Folds another registry's instruments into this one by name: counters
  // add, gauges keep the maximum observed level (high-water semantics — the
  // only aggregation that is meaningful across independent runs), and
  // histograms merge sample-exactly.  Same-name entries of a different kind
  // are skipped (the mismatch is the caller's bug, as in GetCounter).  This
  // is how the campaign runner folds per-worker snapshot registries into
  // one campaign-wide view after the workers join.
  void MergeFrom(const MetricRegistry& other);

  // Some instruments are kept lazily (the data path derives FIFO high-water
  // marks from packet spans when it next settles).  Their owners register
  // a refresher, run before any read (Find, Visit, snapshots, merges) so
  // every reader sees values exact to the current simulated time.
  using Refresher = std::function<void()>;
  void AddRefresher(const void* owner, Refresher fn);
  void RemoveRefresher(const void* owner);

 private:
  Entry* GetOrCreate(const std::string& name, MetricKind kind);
  void Refresh() const;

  std::vector<std::pair<const void*, Refresher>> refreshers_;
  mutable bool refreshing_ = false;

  // std::map: stable handle addresses and deterministic iteration order.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace obs
}  // namespace autonet

#endif  // SRC_OBS_METRICS_H_
