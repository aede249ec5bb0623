#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// The traced pass: replays a workload's requests in-process and times each
// call into the public function of each layer, in the order gyo_serve makes
// those calls, as spans kept in memory and written out once at the end.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The q-quantile of `values` by nearest rank (0 for an empty sample).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(rank + 0.5)];
}

// In-memory span store. A span is (name, start, end, parent, request id);
// spans of one request share the id. While disabled, Now() reads no clock
// and Record() stores nothing, which is how the untraced replay runs the
// same code without tracing cost.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t request;
  };

  void set_enabled(bool on) { enabled_ = on; }
  int64_t Now() const { return enabled_ ? NowNs() : 0; }

  // Stores a finished span; returns its id, or -1 while disabled.
  int Record(const char* name, int64_t start_ns, int64_t end_ns, int parent,
             int64_t request);
  // Starts a span whose end Close() fills in.
  int Open(const char* name, int parent, int64_t request);
  void Close(int span);
  // Files `span` under `parent` (used for steps a library call repeats
  // internally, timed by the benchmark in a separate call).
  void SetParent(int span, int parent);

  const std::vector<Span>& spans() const { return spans_; }
  bool WriteJson(const std::string& path, const std::string& header) const;

 private:
  bool enabled_ = true;
  std::vector<Span> spans_;
};

struct TraceReport {
  // Per-layer metrics by name (see README.md).
  std::map<std::string, double> metrics;
  // Median in-process pipeline time per request, in ms.
  double inprocess_ms = 0.0;
  // Replayed answers that did not match the reference.
  int64_t mismatches = 0;
};

// Replays the warm-up requests and then `w.traced_requests` timed-phase
// requests in-process on fresh caches with spans, derives the per-layer
// metrics from them and writes the spans to `spans_path`. Then replays the
// pipeline alone with spans and without, for the tracing overhead.
TraceReport RunTracedPass(const Workload& w, const std::string& spans_path,
                          const std::string& header);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
