// Chrome trace-event JSON builder.  A caller that knows both ends of every
// span adds closed spans and instant markers on named tracks (one track per
// switch or view, e.g. `sw4.reconfig`), and the builder exports JSON that
// loads directly in Perfetto or chrome://tracing.  Its one user is the
// post-mortem reconstructor, which derives every span from the flight
// recorder after the run.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace autonet {
namespace obs {

class TraceRecorder {
 public:
  // A span [begin, end] of simulated time on `track`.
  void AddSpan(const std::string& track, std::string name, Tick begin,
               Tick end);
  // A zero-duration marker event.
  void Instant(const std::string& track, std::string name, Tick at);

  // Chrome trace-event JSON: {"traceEvents": [...]} with one complete ("X")
  // event per span, an instant ("i") event per marker, and thread-name
  // metadata naming each track.  Spans are sorted by begin time, longer
  // first on a tie, so spans on one track nest outer-first in viewers.
  // Timestamps are microseconds of simulated time.
  std::string ToChromeTraceJson() const;

 private:
  struct Span {
    std::string track;
    std::string name;
    Tick begin = 0;
    Tick end = 0;
    bool instant = false;
  };

  std::vector<Span> spans_;
  std::map<std::string, int> track_ids_;  // deterministic tids
};

}  // namespace obs
}  // namespace autonet

#endif  // SRC_OBS_TRACE_H_
