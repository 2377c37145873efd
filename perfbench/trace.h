// In-memory span recorder for the traced run. The driver opens a span
// around every call it makes into a library layer; spans nest by call
// order (the driver is single-threaded), so each records its parent.
// Spans are kept in memory and written as JSON when the run ends. With
// tracing off a span costs one branch.
#ifndef OGDP_PERFBENCH_TRACE_H_
#define OGDP_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Trace {
 public:
  struct SpanRecord {
    std::string name;
    int64_t parent = -1;  // index into spans(), -1 for a root span
    double start_s = 0;   // seconds since the trace was created
    double end_s = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: open on construction, closed on destruction.
  class Span {
   public:
    Span(Trace& trace, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace& trace_;
    int64_t index_ = -1;
  };

  /// Total duration of the spans named `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// Durations of the spans named `name`, in seconds.
  std::vector<double> Durations(const std::string& name) const;

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes {"spans": [...], "layers": {...}} to `path`.
  bool WriteJson(const std::string& path,
                 const std::map<std::string, double>& layers) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;  // stack of open span indices
};

}  // namespace perfbench

#endif  // OGDP_PERFBENCH_TRACE_H_
