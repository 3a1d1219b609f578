#include "src/obs/metrics.h"

#include "src/obs/json.h"

namespace autonet {
namespace obs {

MetricRegistry::Entry* MetricRegistry::GetOrCreate(const std::string& name,
                                                   MetricKind kind) {
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    return it->second->kind == kind ? it->second.get() : nullptr;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = kind;
  Entry* raw = entry.get();
  entries_.emplace(name, std::move(entry));
  return raw;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  Entry* e = GetOrCreate(name, MetricKind::kCounter);
  return e == nullptr ? nullptr : &e->counter;
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  Entry* e = GetOrCreate(name, MetricKind::kGauge);
  return e == nullptr ? nullptr : &e->gauge;
}

Histogram* MetricRegistry::GetHistogram(const std::string& name) {
  Entry* e = GetOrCreate(name, MetricKind::kHistogram);
  return e == nullptr ? nullptr : &e->histogram;
}

void MetricRegistry::AddRefresher(const void* owner, Refresher fn) {
  refreshers_.emplace_back(owner, std::move(fn));
}

void MetricRegistry::RemoveRefresher(const void* owner) {
  std::erase_if(refreshers_,
                [owner](const auto& r) { return r.first == owner; });
}

void MetricRegistry::Refresh() const {
  if (refreshing_ || refreshers_.empty()) {
    return;
  }
  refreshing_ = true;
  for (const auto& r : refreshers_) {
    r.second();
  }
  refreshing_ = false;
}

const MetricRegistry::Entry* MetricRegistry::Find(
    const std::string& name) const {
  Refresh();
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

void MetricRegistry::Visit(
    const std::string& prefix,
    const std::function<void(const Entry&)>& fn) const {
  Refresh();
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    fn(*it->second);
  }
}

void MetricRegistry::MergeFrom(const MetricRegistry& other) {
  other.Refresh();
  for (const auto& [name, entry] : other.entries_) {
    Entry* mine = GetOrCreate(name, entry->kind);
    if (mine == nullptr) {
      continue;  // kind mismatch: skip rather than silently alias
    }
    switch (entry->kind) {
      case MetricKind::kCounter:
        mine->counter.Increment(entry->counter.value());
        break;
      case MetricKind::kGauge:
        mine->gauge.SetMax(entry->gauge.value());
        break;
      case MetricKind::kHistogram:
        mine->histogram.Merge(entry->histogram);
        break;
    }
  }
}

std::string MetricRegistry::SnapshotJson(const std::string& prefix) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  Visit(prefix, [&](const Entry& e) {
    if (e.kind == MetricKind::kCounter) {
      w.Key(e.name).UInt(e.counter.value());
    }
  });
  w.EndObject();
  w.Key("gauges").BeginObject();
  Visit(prefix, [&](const Entry& e) {
    if (e.kind == MetricKind::kGauge) {
      w.Key(e.name).Number(e.gauge.value());
    }
  });
  w.EndObject();
  w.Key("histograms").BeginObject();
  Visit(prefix, [&](const Entry& e) {
    if (e.kind != MetricKind::kHistogram) {
      return;
    }
    w.Key(e.name).BeginObject();
    w.Key("count").UInt(e.histogram.count());
    w.Key("min").Number(e.histogram.Min());
    w.Key("max").Number(e.histogram.Max());
    w.Key("mean").Number(e.histogram.Mean());
    w.Key("sum").Number(e.histogram.Sum());
    w.Key("p50").Number(e.histogram.Percentile(50));
    w.Key("p99").Number(e.histogram.Percentile(99));
    w.EndObject();
  });
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace obs
}  // namespace autonet
