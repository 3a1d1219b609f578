#include "src/obs/trace.h"

#include <algorithm>
#include <utility>

#include "src/obs/json.h"

namespace autonet {
namespace obs {

void TraceRecorder::AddSpan(const std::string& track, std::string name,
                            Tick begin, Tick end) {
  // Track ids are assigned in order of first use.
  track_ids_.emplace(track, static_cast<int>(track_ids_.size()) + 1);
  spans_.push_back(Span{track, std::move(name), begin, end, false});
}

void TraceRecorder::Instant(const std::string& track, std::string name,
                            Tick at) {
  AddSpan(track, std::move(name), at, at);
  spans_.back().instant = true;
}

std::string TraceRecorder::ToChromeTraceJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();

  // Thread-name metadata: one Perfetto track per recorder track.
  for (const auto& [track, tid] : track_ids_) {
    w.BeginObject();
    w.Key("ph").String("M");
    w.Key("name").String("thread_name");
    w.Key("pid").Int(1);
    w.Key("tid").Int(tid);
    w.Key("args").BeginObject().Key("name").String(track).EndObject();
    w.EndObject();
  }

  // Emit spans sorted by (begin, -duration) so complete events with equal
  // start times nest outer-first in viewers.
  std::vector<const Span*> order;
  order.reserve(spans_.size());
  for (const Span& s : spans_) {
    order.push_back(&s);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Span* a, const Span* b) {
                     if (a->begin != b->begin) {
                       return a->begin < b->begin;
                     }
                     return (a->end - a->begin) > (b->end - b->begin);
                   });

  for (const Span* s : order) {
    w.BeginObject();
    w.Key("name").String(s->name);
    w.Key("pid").Int(1);
    w.Key("tid").Int(track_ids_.at(s->track));
    w.Key("ts").Number(static_cast<double>(s->begin) / 1000.0);
    if (s->instant) {
      w.Key("ph").String("i");
      w.Key("s").String("t");  // thread-scoped instant
    } else {
      w.Key("ph").String("X");
      w.Key("dur").Number(static_cast<double>(s->end - s->begin) / 1000.0);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace obs
}  // namespace autonet
